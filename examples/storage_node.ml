(* The paper's motivating application (Section 1): "the data-storage node
   in a distributed block store like GFS or S3", running end-to-end on the
   verified stack — two simulated machines, each booting the kernel; the
   node persists blocks through the filesystem's write-ahead log; the
   client talks TCP through the network stack; every interaction crosses
   the marshalled syscall ABI.  Serving is done by the netd daemon — an
   acceptor thread, a futex-backed request queue, and a pool of worker
   threads, all real kernel threads of one process.

   Run with:  dune exec examples/storage_node.exe *)

module K = Bi_kernel.Kernel
module U = Bi_kernel.Usys
module P = Bi_app.Protocol
module RC = Bi_app.Resilient_client
module Nd_client = Bi_netd.Nd_client

let server_ip = Bi_net.Ip.addr_of_string "10.0.0.1"
let client_ip = Bi_net.Ip.addr_of_string "10.0.0.2"

(* Every step logs its outcome; the example exits non-zero when any step
   did not go as expected. *)
let failures = ref 0

let step s ok msg =
  if not ok then incr failures;
  U.log s ((if ok then "" else "FAILED: ") ^ msg)

let client_program s _arg =
  let net, c = Nd_client.create ~client:1 s ~ip:server_ip in
  (* Store a few objects, one of them sizeable. *)
  let objects =
    [
      ("motd", "hello from the verified stack");
      ("config", "replicas=3\nchecksums=crc32\n");
      ("blob-1", String.init 20_000 (fun i -> Char.chr (33 + (i mod 94))));
    ]
  in
  List.iter
    (fun (key, value) ->
      step s (RC.put c ~key ~value = Ok ())
        (Printf.sprintf "PUT %-8s (%d bytes)" key (String.length value)))
    objects;
  (* List and read back with client-side checksum verification. *)
  let keys = Result.value (RC.list c) ~default:[] in
  step s
    (List.sort compare keys = List.sort compare (List.map fst objects))
    ("LIST -> " ^ String.concat ", " keys);
  List.iter
    (fun (key, original) ->
      step s (RC.get c ~key = Ok (Some original))
        (Printf.sprintf "GET %-8s (%d bytes, crc verified)" key
           (String.length original)))
    objects;
  (* Delete one and confirm. *)
  step s (RC.delete c ~key:"motd" = Ok true) "DELETE motd";
  step s (RC.get c ~key:"motd" = Ok None) "GET motd -> gone";
  step s (Nd_client.rpc net P.Shutdown = Ok P.Done) "SHUTDOWN";
  Nd_client.close net

let () =
  let server = K.create ~ip:server_ip () in
  let client = K.create ~ip:client_ip () in
  K.connect server client;
  ignore (Bi_netd.Netd.install server);
  K.register_program client "client" client_program;
  (match K.spawn server ~prog:"netd" ~arg:"" with
  | Ok pid -> Format.printf "server: booted storage node as pid %d@." pid
  | Error _ -> failwith "server spawn failed");
  (match K.spawn client ~prog:"client" ~arg:"" with
  | Ok pid -> Format.printf "client: booted as pid %d@." pid
  | Error _ -> failwith "client spawn failed");
  K.run_pair server client;
  Format.printf "@.--- server console ---@.%s" (K.serial_output server);
  Format.printf "@.--- client console ---@.%s" (K.serial_output client);
  (* The blocks are durable: remount the server's disk and inspect. *)
  let disk = (K.machine server).Bi_hw.Machine.disk in
  let fs = Bi_fs.Fs.mount (Bi_fs.Block_dev.of_disk disk) in
  (match Bi_fs.Fs.readdir fs "/blocks" with
  | Ok entries ->
      Format.printf "@.after remount, /blocks holds: %s@."
        (String.concat ", " entries);
      if List.mem "motd" entries || not (List.mem "blob-1" entries) then
        incr failures
  | Error e ->
      Format.printf "remount readdir failed: %a@." Bi_fs.Fs.pp_error e;
      incr failures);
  if !failures > 0 then begin
    Format.printf "%d step(s) failed@." !failures;
    exit 1
  end
