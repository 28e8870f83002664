(* Boot the simulated OS and run a demo workload: a multi-process,
   multi-thread script exercising every kernel service (the component list
   of the paper's Section 1), with a syscall trace replayed against the
   client application contract at the end.

   Usage:
     bi_os                      boot and run the demo workload
     bi_os --trace              also dump the syscall trace
     bi_os --mem 64             physical memory in MiB *)

module K = Bi_kernel.Kernel
module U = Bi_kernel.Usys

let worker_program s arg =
  (* Child process: write its argument to its own file, then exit with the
     argument's length. *)
  let path = "/out-" ^ arg in
  (match U.openf s ~create:true path with
  | Ok fd ->
      ignore (U.write s ~fd ("data from " ^ arg));
      ignore (U.close s fd)
  | Error _ -> U.log s ("worker " ^ arg ^ ": open failed"));
  U.exit s (String.length arg)

let init_program s _arg =
  U.log s "init: starting";
  (* Filesystem setup. *)
  ignore (U.mkdir s "/etc");
  (match U.openf s ~create:true "/etc/motd" with
  | Ok fd ->
      ignore (U.write s ~fd "welcome to the verified OS reproduction\n");
      ignore (U.close s fd)
  | Error _ -> ());
  (* Spawn three children and wait for them. *)
  let pids =
    List.filter_map
      (fun arg ->
        match U.spawn s ~prog:"worker" ~arg with
        | Ok pid -> Some (arg, pid)
        | Error _ -> None)
      [ "alpha"; "beta"; "gamma" ]
  in
  List.iter
    (fun (arg, pid) ->
      match U.wait s pid with
      | Ok code -> U.log s (Printf.sprintf "init: %s (pid %d) exited %d" arg pid code)
      | Error _ -> U.log s "init: wait failed")
    pids;
  (* Threads + mutex over shared memory. *)
  let m = Bi_ulib.Umutex.create s in
  let counter = ref 0 in
  let tids =
    List.init 4 (fun _ ->
        U.thread_create s (fun s2 ->
            for _ = 1 to 25 do
              Bi_ulib.Umutex.with_lock s2 m (fun () ->
                  let v = !counter in
                  U.yield s2;
                  counter := v + 1)
            done))
  in
  List.iter (fun t -> ignore (U.thread_join s t)) tids;
  U.log s (Printf.sprintf "init: 4 threads incremented to %d" !counter);
  (* Memory management through the verified page table. *)
  (match U.mmap s ~bytes:65536 with
  | Ok va ->
      ignore (U.store s ~va:(Int64.add va 0x8000L) 0xFACEL);
      (match U.load s ~va:(Int64.add va 0x8000L) with
      | Ok v -> U.log s (Printf.sprintf "init: mmap store/load 0x%Lx" v)
      | Error _ -> ());
      ignore (U.munmap s ~va)
  | Error _ -> ());
  (* Inspect the filesystem. *)
  (match U.readdir s "/" with
  | Ok names -> U.log s ("init: / holds " ^ String.concat " " names)
  | Error _ -> ());
  U.log s "init: done"

let main mem_mib dump_trace =
  let k = K.create ~mem_bytes:(mem_mib * 1024 * 1024) () in
  K.set_trace k true;
  K.register_program k "init" init_program;
  K.register_program k "worker" worker_program;
  (match K.spawn k ~prog:"init" ~arg:"" with
  | Ok _ -> ()
  | Error _ -> failwith "failed to boot init");
  K.run k;
  print_string (K.serial_output k);
  let trace = K.trace k in
  if dump_trace then
    List.iter
      (fun (pid, req, resp) ->
        Format.printf "[pid %d] %a -> %a@." pid Bi_kernel.Sysabi.pp_request req
          Bi_kernel.Sysabi.pp_response resp)
      trace;
  (* Replay against the client application contract. *)
  (match Bi_kernel.Sys_spec.check_trace ~next_pid:2 trace with
  | Ok (checked, unchecked) ->
      Format.printf
        "contract: %d syscalls value-checked against Sys_spec, %d \
         scheduling-dependent@."
        checked unchecked
  | Error msg -> Format.printf "CONTRACT VIOLATION: %s@." msg);
  0

open Cmdliner

let mem =
  Arg.(value & opt int 32 & info [ "mem" ] ~doc:"Physical memory in MiB.")

let trace_flag =
  Arg.(value & flag & info [ "trace" ] ~doc:"Dump the full syscall trace.")

let cmd =
  let doc = "boot the simulated verified OS and run the demo workload" in
  Cmd.v (Cmd.info "bi_os" ~doc) Term.(const main $ mem $ trace_flag)

let () = exit (Cmd.eval' cmd)
