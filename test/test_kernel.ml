(* Kernel tests: the syscall ABI marshalling VCs, process/thread/futex
   semantics, fd behaviour against the paper's read_spec, memory syscalls
   through the verified page table, the Sys_spec contract replay, and the
   data-race-freedom argument for fd state. *)

module K = Bi_kernel.Kernel
module U = Bi_kernel.Usys
module Sysabi = Bi_kernel.Sysabi
module Sys_spec = Bi_kernel.Sys_spec
module Scheduler = Bi_kernel.Scheduler
module Futex = Bi_kernel.Futex

let check = Alcotest.check

let qtest name count gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let err = Alcotest.testable Sysabi.pp_err ( = )

(* Run a single program to completion and return the kernel.  The
   kernel only logs a thread that raised to its serial port, so a check
   failing inside the program fails the case here. *)
let run_one body =
  let k = K.create () in
  K.register_program k "main" (fun s _ -> body k s);
  (match K.spawn k ~prog:"main" ~arg:"" with
  | Ok _ -> K.run k
  | Error _ -> Alcotest.fail "spawn failed");
  let out = K.serial_output k in
  if
    List.exists
      (String.starts_with ~prefix:"[kernel] thread")
      (String.split_on_char '\n' out)
  then Alcotest.fail out;
  k

let abi_vc_cases () =
  List.map
    (fun (vc : Bi_core.Vc.t) ->
      Alcotest.test_case vc.Bi_core.Vc.id `Quick (fun () ->
          match Bi_core.Vc.catch vc.Bi_core.Vc.check with
          | Bi_core.Vc.Proved -> ()
          | (Bi_core.Vc.Falsified _ | Bi_core.Vc.Timeout _ | Bi_core.Vc.Capped _) as o ->
              Alcotest.failf "%a" Bi_core.Vc.pp_outcome o))
    (Sysabi.vcs ())

(* Golden bytes: the word-at-a-time codec writes exactly what the
   byte-at-a-time one did.  The digest was first recorded with the
   previous [Pkt] writers and readers (one [Buffer.add_char] per byte),
   and re-recorded when [Tcp_accept] lost its [timeout] field: that also
   drops one draw per accept from the sample stream, while every other
   request still encodes to the bytes it did before. *)
let golden_responses =
  let open Sysabi in
  [
    R_unit; R_int 42; R_int (-7); R_i64 0x8000_0000_0000_0001L; R_i64 (-2L);
    R_data ""; R_data "golden"; R_names []; R_names [ "a"; "bc" ];
    R_stat { dir = true; size = 4096 };
    R_dgram { ip = 0xC0A80001l; port = 53; data = "q" }; R_pair (3, 4);
  ]
  @ List.map
      (fun e -> R_err e)
      [
        E_badf; E_noent; E_exists; E_inval; E_nomem; E_notdir; E_isdir;
        E_notempty; E_nospace; E_toolarge; E_again; E_nosys; E_child; E_srch;
        E_conn; E_fault;
      ]

let test_codec_golden_bytes () =
  let g = Bi_core.Gen.create 0x5eedL in
  let b = Buffer.create 65536 in
  for _ = 1 to 4096 do
    Buffer.add_bytes b (Sysabi.encode_request (Sysabi.sample_request g))
  done;
  List.iter (fun r -> Buffer.add_bytes b (Sysabi.encode_response r)) golden_responses;
  check Alcotest.int "stream length" 49446 (Buffer.length b);
  check Alcotest.string "stream digest" "211e7b2d8d55ae9eaa83b0ec81698ca7"
    (Digest.to_hex (Digest.string (Buffer.contents b)));
  List.iter
    (fun r ->
      check Alcotest.bool "response round-trips" true
        (Sysabi.decode_response (Sysabi.encode_response r) = Some r))
    golden_responses

(* ------------------------------------------------------------------ *)
(* Scheduler / futex units *)

let test_scheduler_fifo () =
  let s = Scheduler.create () in
  Scheduler.enqueue s 1;
  Scheduler.enqueue s 2;
  Scheduler.enqueue s 3;
  Scheduler.remove s 2;
  check (Alcotest.option Alcotest.int) "first" (Some 1) (Scheduler.dequeue s);
  check (Alcotest.option Alcotest.int) "removed skipped" (Some 3) (Scheduler.dequeue s);
  check (Alcotest.option Alcotest.int) "empty" None (Scheduler.dequeue s)

let test_scheduler_as_seq_ds () =
  let s = Scheduler.create () in
  check Alcotest.bool "enqueue op" true (Scheduler.apply s (Scheduler.Enqueue 9) = Scheduler.Unit);
  check Alcotest.bool "length is read-only" true (Scheduler.is_read_only Scheduler.Length);
  check Alcotest.bool "dequeue mutates" false (Scheduler.is_read_only Scheduler.Dequeue);
  check Alcotest.bool "length op" true (Scheduler.apply s Scheduler.Length = Scheduler.Len 1)

let test_futex_fifo_wake () =
  let f = Futex.create () in
  Futex.enqueue f ~pid:1 ~va:0x100L ~tid:10;
  Futex.enqueue f ~pid:1 ~va:0x100L ~tid:11;
  Futex.enqueue f ~pid:1 ~va:0x100L ~tid:12;
  check (Alcotest.list Alcotest.int) "fifo order, bounded count" [ 10; 11 ]
    (Futex.wake f ~pid:1 ~va:0x100L ~count:2);
  check Alcotest.int "one left" 1 (Futex.waiters f ~pid:1 ~va:0x100L)

let test_futex_keys_isolated () =
  let f = Futex.create () in
  Futex.enqueue f ~pid:1 ~va:0x100L ~tid:10;
  Futex.enqueue f ~pid:2 ~va:0x100L ~tid:20;
  check (Alcotest.list Alcotest.int) "pid isolates queues" [ 10 ]
    (Futex.wake f ~pid:1 ~va:0x100L ~count:8);
  check Alcotest.int "other pid untouched" 1 (Futex.waiters f ~pid:2 ~va:0x100L)

let test_futex_remove_thread () =
  let f = Futex.create () in
  Futex.enqueue f ~pid:1 ~va:0x100L ~tid:10;
  Futex.enqueue f ~pid:1 ~va:0x100L ~tid:11;
  Futex.remove_thread f ~tid:10;
  check (Alcotest.list Alcotest.int) "removed not woken" [ 11 ]
    (Futex.wake f ~pid:1 ~va:0x100L ~count:8)

(* ------------------------------------------------------------------ *)
(* Process lifecycle *)

let test_exit_code_via_wait () =
  let observed = ref (-1) in
  let k = K.create () in
  K.register_program k "child" (fun s _ -> U.exit s 33);
  K.register_program k "main" (fun s _ ->
      match U.spawn s ~prog:"child" ~arg:"" with
      | Ok pid -> (
          match U.wait s pid with Ok c -> observed := c | Error _ -> ())
      | Error _ -> ());
  ignore (K.spawn k ~prog:"main" ~arg:"");
  K.run k;
  check Alcotest.int "exit code delivered" 33 !observed

let test_spawn_reap_frees_frames () =
  (* Every reaped process gives back all its frames, page-table root
     included: 10,000 cycles would exhaust the default 8,128 frames if one
     leaked per child. *)
  let k = K.create () in
  let frames = (K.machine k).Bi_hw.Machine.frames in
  let start = ref (-1) and finish = ref (-1) and failed = ref 0 in
  K.register_program k "child" (fun s _ -> U.exit s 0);
  K.register_program k "main" (fun s _ ->
      start := Bi_hw.Frame_alloc.free_count frames;
      for _ = 1 to 10_000 do
        match U.spawn s ~prog:"child" ~arg:"" with
        | Ok pid -> ( match U.wait s pid with Ok _ -> () | Error _ -> incr failed)
        | Error _ -> incr failed
      done;
      finish := Bi_hw.Frame_alloc.free_count frames);
  ignore (K.spawn k ~prog:"main" ~arg:"");
  K.run k;
  check Alcotest.int "every cycle spawned and reaped" 0 !failed;
  check Alcotest.int "free frames back to the start" !start !finish

let test_spawn_out_of_frames () =
  (* With no frame left for a page-table root, spawn fails with E_nomem
     instead of raising out of the kernel. *)
  let k = K.create ~mem_bytes:(68 * 4096) () in
  let results = ref [] in
  K.register_program k "child" (fun s _ -> U.sleep s 5);
  K.register_program k "main" (fun s _ ->
      for _ = 1 to 4 do
        results := U.spawn s ~prog:"child" ~arg:"" :: !results
      done);
  ignore (K.spawn k ~prog:"main" ~arg:"");
  K.run k;
  match List.rev !results with
  | [ Ok _; Ok _; Ok _; Error e ] -> check err "fourth spawn" Sysabi.E_nomem e
  | _ -> Alcotest.fail "expected three children, then E_nomem"

let test_wait_before_exit_blocks () =
  (* Parent waits while the child still sleeps: must block then resume. *)
  let observed = ref (-1) in
  let k = K.create () in
  K.register_program k "slow" (fun s _ ->
      U.sleep s 5;
      U.exit s 9);
  K.register_program k "main" (fun s _ ->
      match U.spawn s ~prog:"slow" ~arg:"" with
      | Ok pid -> (
          match U.wait s pid with Ok c -> observed := c | Error _ -> ())
      | Error _ -> ());
  ignore (K.spawn k ~prog:"main" ~arg:"");
  K.run k;
  check Alcotest.int "blocked wait resumed" 9 !observed

let test_wait_not_child () =
  let result = ref (Ok 0) in
  let k = K.create () in
  K.register_program k "bystander" (fun s _ -> U.sleep s 2);
  K.register_program k "main" (fun s _ -> result := U.wait s 999);
  ignore (K.spawn k ~prog:"main" ~arg:"");
  K.run k;
  check Alcotest.bool "ECHILD" true (!result = Error Sysabi.E_child)

let test_kill_terminates () =
  let after_kill = ref (Ok 0) in
  let k = K.create () in
  K.register_program k "victim" (fun s _ ->
      U.sleep s 10_000;
      U.log s "victim survived?!");
  K.register_program k "main" (fun s _ ->
      match U.spawn s ~prog:"victim" ~arg:"" with
      | Ok pid ->
          (match U.kill s ~pid ~signal:9 with Ok () | Error _ -> ());
          after_kill := U.wait s pid
      | Error _ -> ());
  ignore (K.spawn k ~prog:"main" ~arg:"");
  K.run k;
  check Alcotest.bool "victim killed, code 128+9" true
    (!after_kill = Ok 137);
  check Alcotest.bool "no survivor output" true
    (not
       (String.length (K.serial_output k) > 0
       && String.length (K.serial_output k) >= 7
       && String.sub (K.serial_output k) 0 6 = "victim"))

let test_kill_signal_zero_probes () =
  let alive = ref (Error Sysabi.E_inval) in
  let dead = ref (Ok ()) in
  let k = K.create () in
  K.register_program k "target" (fun s _ -> U.sleep s 3);
  K.register_program k "main" (fun s _ ->
      match U.spawn s ~prog:"target" ~arg:"" with
      | Ok pid ->
          alive := U.kill s ~pid ~signal:0;
          ignore (U.wait s pid);
          dead := U.kill s ~pid ~signal:0
      | Error _ -> ());
  ignore (K.spawn k ~prog:"main" ~arg:"");
  K.run k;
  check Alcotest.bool "existence check ok" true (!alive = Ok ());
  check Alcotest.bool "reaped process gone" true (!dead = Error Sysabi.E_srch)

let test_spawn_unknown_program () =
  let r = ref (Ok 0) in
  ignore (run_one (fun _ s -> r := U.spawn s ~prog:"nope" ~arg:""));
  check Alcotest.bool "ENOENT" true (!r = Error Sysabi.E_noent)

let test_deadlock_detected () =
  let k = K.create () in
  K.register_program k "stuck" (fun s _ ->
      (* futex_wait on a word nobody will ever wake *)
      match U.mmap s ~bytes:4096 with
      | Ok va -> ignore (U.futex_wait s ~va ~expected:0L)
      | Error _ -> ());
  ignore (K.spawn k ~prog:"stuck" ~arg:"");
  match K.run k with
  | exception K.Deadlock _ -> ()
  | () -> Alcotest.fail "deadlock must be detected"

let test_spawn_reap_releases_memory () =
  (* A reaped child's frames give their memory back, not just their
     allocator bits: the next-fit cursor hands every cycle fresh frames,
     so if freeing kept the buffers the materialised count would grow by
     each child's footprint, cycle after cycle. *)
  let k = K.create () in
  let mem = (K.machine k).Bi_hw.Machine.mem in
  let start = ref (-1) and finish = ref (-1) and peak = ref (-1) in
  K.register_program k "child" (fun s _ ->
      match U.mmap s ~bytes:(4 * 4096) with
      | Ok va ->
          for p = 0 to 3 do
            ignore (U.store s ~va:(Int64.add va (Int64.of_int (p * 4096))) 1L)
          done;
          peak := max !peak (Bi_hw.Phys_mem.materialised mem)
      | Error _ -> U.exit s 1);
  K.register_program k "main" (fun s _ ->
      start := Bi_hw.Phys_mem.materialised mem;
      for _ = 1 to 200 do
        match U.spawn s ~prog:"child" ~arg:"" with
        | Ok pid -> ignore (U.wait s pid)
        | Error _ -> ()
      done;
      finish := Bi_hw.Phys_mem.materialised mem);
  ignore (K.spawn k ~prog:"main" ~arg:"");
  K.run k;
  check Alcotest.bool "a child materialises frames" true (!peak > !start);
  check Alcotest.int "materialised frames back to the start" !start !finish

(* A reaped process leaves nothing behind in the kernel: its threads,
   its futex queues, its thread entries and its record all go.  Each
   cycle's child parks two threads in futex waits before it is killed
   and reaped, so a table that kept any of them would grow by a child's
   worth of words every cycle. *)
let test_reaped_processes_leave_nothing () =
  let k = K.create () in
  K.register_program k "child" (fun s _ ->
      match U.mmap s ~bytes:4096 with
      | Error _ -> U.exit s 1
      | Ok va ->
          ignore
            (U.thread_create s (fun s2 ->
                 ignore (U.futex_wait s2 ~va ~expected:0L)));
          ignore (U.futex_wait s ~va ~expected:0L));
  K.register_program k "cycles" (fun s arg ->
      for _ = 1 to int_of_string arg do
        match U.spawn s ~prog:"child" ~arg:"" with
        | Ok pid ->
            U.sleep s 1;
            ignore (U.kill s ~pid ~signal:9);
            check Alcotest.(result int err) "reaped" (Ok 137) (U.wait s pid);
            check Alcotest.(result int err) "wait again" (Error Sysabi.E_child)
              (U.wait s pid);
            check Alcotest.(result unit err) "kill again" (Error Sysabi.E_srch)
              (U.kill s ~pid ~signal:9)
        | Error e -> Alcotest.failf "spawn: %a" Sysabi.pp_err e
      done);
  (* Each "cycles" process stays a zombie (the kernel is its parent and
     never waits), so both measurements hold one. *)
  let words_after cycles =
    ignore (K.spawn k ~prog:"cycles" ~arg:(string_of_int cycles));
    K.run k;
    Obj.reachable_words (Obj.repr k)
  in
  let w20 = words_after 20 in
  let w200 = words_after 180 in
  if K.serial_output k <> "" then Alcotest.fail (K.serial_output k);
  if w200 - w20 > 400 then
    Alcotest.failf "kernel grew by %d words from 20 to 200 reaped children"
      (w200 - w20)

(* ------------------------------------------------------------------ *)
(* File descriptors: the read_spec semantics *)

let test_fd_read_spec_semantics () =
  (* The paper's read_spec: read_len = min(len, size - offset); data is
     contents[offset .. offset+read_len); offset advances by read_len. *)
  ignore
    (run_one (fun _ s ->
         match U.openf s ~create:true "/f" with
         | Error _ -> Alcotest.fail "open"
         | Ok fd -> (
             ignore (U.write s ~fd "0123456789");
             ignore (U.seek s ~fd ~off:7);
             (match U.read s ~fd ~len:5 with
             | Ok d -> check Alcotest.string "short read at eof" "789" d
             | Error _ -> Alcotest.fail "read 1");
             (match U.read s ~fd ~len:5 with
             | Ok d -> check Alcotest.string "offset advanced to eof" "" d
             | Error _ -> Alcotest.fail "read 2");
             ignore (U.seek s ~fd ~off:2);
             match U.read s ~fd ~len:3 with
             | Ok d -> check Alcotest.string "mid-file read" "234" d
             | Error _ -> Alcotest.fail "read 3")))

let test_fd_isolation_between_processes () =
  (* fds are per-process: a child's fd table starts empty. *)
  let child_err = ref (Ok "") in
  let k = K.create () in
  K.register_program k "child" (fun s _ -> child_err := U.read s ~fd:3 ~len:1);
  K.register_program k "main" (fun s _ ->
      (match U.openf s ~create:true "/x" with
      | Ok fd -> check Alcotest.int "first fd is 3" 3 fd
      | Error _ -> Alcotest.fail "open");
      match U.spawn s ~prog:"child" ~arg:"" with
      | Ok pid -> ignore (U.wait s pid)
      | Error _ -> ());
  ignore (K.spawn k ~prog:"main" ~arg:"");
  K.run k;
  check Alcotest.bool "child sees EBADF" true (!child_err = Error Sysabi.E_badf)

let test_fd_badf_cases () =
  ignore
    (run_one (fun _ s ->
         check (Alcotest.result Alcotest.string err) "read" (Error Sysabi.E_badf)
           (U.read s ~fd:42 ~len:1);
         check (Alcotest.result Alcotest.int err) "write" (Error Sysabi.E_badf)
           (U.write s ~fd:42 "x");
         check (Alcotest.result Alcotest.unit err) "close" (Error Sysabi.E_badf)
           (U.close s 42);
         match U.openf s ~create:true "/y" with
         | Ok fd ->
             ignore (U.close s fd);
             check (Alcotest.result Alcotest.string err) "use after close"
               (Error Sysabi.E_badf) (U.read s ~fd ~len:1)
         | Error _ -> Alcotest.fail "open"))

let test_two_fds_independent_offsets () =
  ignore
    (run_one (fun _ s ->
         (match U.openf s ~create:true "/shared" with
         | Ok fd -> ignore (U.write s ~fd "abcdef"); ignore (U.close s fd)
         | Error _ -> Alcotest.fail "setup");
         match (U.openf s "/shared", U.openf s "/shared") with
         | Ok fd1, Ok fd2 ->
             ignore (U.read s ~fd:fd1 ~len:2);
             (match U.read s ~fd:fd2 ~len:3 with
             | Ok d -> check Alcotest.string "fd2 from start" "abc" d
             | Error _ -> Alcotest.fail "read fd2");
             (match U.read s ~fd:fd1 ~len:2 with
             | Ok d -> check Alcotest.string "fd1 continues" "cd" d
             | Error _ -> Alcotest.fail "read fd1")
         | _ -> Alcotest.fail "opens"))

(* ------------------------------------------------------------------ *)
(* Memory syscalls *)

let test_mmap_through_verified_pt () =
  ignore
    (run_one (fun k s ->
         match U.mmap s ~bytes:8192 with
         | Error _ -> Alcotest.fail "mmap"
         | Ok va ->
             check Alcotest.bool "user-range va" true
               (va >= Bi_kernel.Address_space.user_base);
             (* Both pages mapped and zeroed. *)
             (match U.load s ~va with
             | Ok 0L -> ()
             | _ -> Alcotest.fail "page 1 not zeroed");
             (match U.load s ~va:(Int64.add va 4096L) with
             | Ok 0L -> ()
             | _ -> Alcotest.fail "page 2 not zeroed");
             (* Mresolve gives a physical address inside machine memory. *)
             (match U.mresolve s ~va with
             | Ok pa ->
                 check Alcotest.bool "pa in ram" true
                   (Int64.to_int pa
                   < Bi_hw.Phys_mem.size (K.machine k).Bi_hw.Machine.mem)
             | Error _ -> Alcotest.fail "mresolve");
             (match U.munmap s ~va with
             | Ok () -> ()
             | Error _ -> Alcotest.fail "munmap");
             (* After munmap, access faults. *)
             (match U.load s ~va with
             | Error Sysabi.E_fault -> ()
             | _ -> Alcotest.fail "unmapped access must fault");
             match U.mresolve s ~va with
             | Error Sysabi.E_fault -> ()
             | _ -> Alcotest.fail "resolve after munmap"))

let test_mmap_batched_and_fragmented_fallback () =
  let module As = Bi_kernel.Address_space in
  let module Phys_mem = Bi_hw.Phys_mem in
  let module Frame_alloc = Bi_hw.Frame_alloc in
  let mem = Phys_mem.create ~size:(2 * 1024 * 1024) in
  let frames = Frame_alloc.create ~mem ~base:0x40000L ~frames:256 in
  let a = As.create ~mem ~frames in
  let rw_region va pages =
    for i = 0 to pages - 1 do
      let pva = Int64.add va (Int64.of_int (i * 4096)) in
      (match As.load_u64 a ~va:pva with
      | Ok 0L -> ()
      | Ok _ -> Alcotest.failf "page %d not zeroed" i
      | Error _ -> Alcotest.failf "page %d unreadable" i);
      match As.store_u64 a ~va:pva (Int64.of_int (i + 1)) with
      | Ok () -> ()
      | Error _ -> Alcotest.failf "page %d unwritable" i
    done;
    for i = 0 to pages - 1 do
      let pva = Int64.add va (Int64.of_int (i * 4096)) in
      match As.load_u64 a ~va:pva with
      | Ok v -> check Alcotest.int64 "distinct backing frames" (Int64.of_int (i + 1)) v
      | Error _ -> Alcotest.failf "page %d lost" i
    done
  in
  (* Multi-page regions take the contiguous-run + map_range path. *)
  (match As.mmap a ~bytes:(16 * 4096) with
  | Ok va ->
      rw_region va 16;
      (match As.munmap a ~va with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "munmap")
  | Error _ -> Alcotest.fail "batched mmap");
  (* Fragment physical memory so no contiguous run exists: drain every
     frame, then free only every other one.  mmap must fall back to the
     per-page path and still succeed. *)
  let rec drain acc =
    match Frame_alloc.alloc frames with
    | exception Frame_alloc.Out_of_frames -> acc
    | f -> drain (f :: acc)
  in
  let held = drain [] in
  List.iteri (fun i f -> if i mod 2 = 0 then Frame_alloc.free frames f) held;
  (match As.mmap a ~bytes:(4 * 4096) with
  | Ok va ->
      rw_region va 4;
      (match As.munmap a ~va with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "munmap after fallback")
  | Error _ -> Alcotest.fail "fragmented mmap must fall back per page");
  check Alcotest.int "no region leaked" 0 (As.mapped_bytes a)

let test_mmap_rejects_bad_args () =
  ignore
    (run_one (fun _ s ->
         check (Alcotest.result Alcotest.int64 err) "zero bytes"
           (Error Sysabi.E_inval) (U.mmap s ~bytes:0);
         check (Alcotest.result Alcotest.unit err) "bogus munmap"
           (Error Sysabi.E_inval) (U.munmap s ~va:0x123456L)))

let test_address_spaces_isolated () =
  (* Two processes writing the same virtual address must not interfere. *)
  let k = K.create () in
  let results = ref [] in
  K.register_program k "writer" (fun s arg ->
      match U.mmap s ~bytes:4096 with
      | Ok va ->
          ignore (U.store s ~va (Int64.of_string arg));
          U.yield s;
          (match U.load s ~va with
          | Ok v -> results := (arg, v) :: !results
          | Error _ -> ());
          U.exit s 0
      | Error _ -> ());
  ignore (K.spawn k ~prog:"writer" ~arg:"111");
  ignore (K.spawn k ~prog:"writer" ~arg:"222");
  K.run k;
  let sorted = List.sort compare !results in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int64))
    "each process sees its own value"
    [ ("111", 111L); ("222", 222L) ]
    sorted

(* ------------------------------------------------------------------ *)
(* Threads and futexes in the kernel *)

let test_thread_join_and_shared_memory () =
  ignore
    (run_one (fun _ s ->
         match U.mmap s ~bytes:4096 with
         | Error _ -> Alcotest.fail "mmap"
         | Ok va ->
             (* Store before the thread exists: a thread created first
                may run first, and its 40 would be overwritten. *)
             ignore (U.store s ~va 2L);
             let tid =
               U.thread_create s (fun s2 ->
                   match U.load s2 ~va with
                   | Ok v -> ignore (U.store s2 ~va (Int64.add v 40L))
                   | Error _ -> ())
             in
             (match U.thread_join s tid with
             | Ok () -> ()
             | Error _ -> Alcotest.fail "join");
             match U.load s ~va with
             | Ok v -> check Alcotest.int64 "threads share the AS" 42L v
             | Error _ -> Alcotest.fail "load"))

let test_futex_wait_value_mismatch () =
  ignore
    (run_one (fun _ s ->
         match U.mmap s ~bytes:4096 with
         | Error _ -> Alcotest.fail "mmap"
         | Ok va ->
             ignore (U.store s ~va 5L);
             check (Alcotest.result Alcotest.unit err) "EAGAIN on stale value"
               (Error Sysabi.E_again)
               (U.futex_wait s ~va ~expected:0L)))

let test_futex_wake_count () =
  ignore
    (run_one (fun _ s ->
         match U.mmap s ~bytes:4096 with
         | Error _ -> Alcotest.fail "mmap"
         | Ok va ->
             let woken_total = ref 0 in
             let waiter s2 =
               match U.futex_wait s2 ~va ~expected:0L with
               | Ok () | Error _ -> ()
             in
             let t1 = U.thread_create s waiter in
             let t2 = U.thread_create s waiter in
             let t3 = U.thread_create s waiter in
             U.yield s;
             (* let waiters park *)
             U.yield s;
             woken_total := U.futex_wake s ~va ~count:2;
             check Alcotest.int "exactly two woken" 2 !woken_total;
             check Alcotest.int "third still parked" 1
               (U.futex_wake s ~va ~count:10);
             List.iter (fun t -> ignore (U.thread_join s t)) [ t1; t2; t3 ]))

let test_futex_fault_on_unmapped () =
  ignore
    (run_one (fun _ s ->
         check (Alcotest.result Alcotest.unit err) "EFAULT"
           (Error Sysabi.E_fault)
           (U.futex_wait s ~va:0xDEAD000L ~expected:0L)))

let test_thread_join_finished_and_absent () =
  ignore
    (run_one (fun _ s ->
         let tid = U.thread_create s (fun s2 -> U.yield s2) in
         U.sleep s 3;
         (* The thread is long finished: join completes immediately. *)
         check (Alcotest.result Alcotest.unit err) "join finished thread"
           (Ok ()) (U.thread_join s tid);
         check (Alcotest.result Alcotest.unit err) "join unknown tid"
           (Error Sysabi.E_srch)
           (U.thread_join s 9_999)))

(* The calling thread's own state reads [Finished] while it runs, so a
   join that only looked at the state would return [Ok ()] at once. *)
let test_self_join_einval () =
  let got = ref (Ok ()) in
  ignore (run_one (fun _ s -> got := U.thread_join s (K.sys_tid s)));
  check (Alcotest.result Alcotest.unit err) "self-join" (Error Sysabi.E_inval)
    !got

let test_kill_wakes_cross_process_joiner () =
  (* Regression (blocking-syscall audit): a thread parked in
     [thread_join] on a thread of another process must be woken when
     that process is killed — the killed thread never reaches
     [finish_thread], so [kill_process] has to wake its joiners itself.
     Before the fix the joiner stayed parked forever and this test died
     in [K.run]'s deadlock detector. *)
  let victim_tid = ref (-1) in
  let join_result = ref (Error Sysabi.E_inval) in
  let k = K.create () in
  K.register_program k "victim" (fun s _ ->
      victim_tid := U.thread_create s (fun s2 -> U.sleep s2 10_000);
      U.sleep s 10_000);
  K.register_program k "main" (fun s _ ->
      match U.spawn s ~prog:"victim" ~arg:"" with
      | Error _ -> Alcotest.fail "spawn"
      | Ok pid ->
          (* Let the victim run and publish its worker tid. *)
          U.sleep s 2;
          let joiner =
            U.thread_create s (fun s2 ->
                join_result := U.thread_join s2 !victim_tid)
          in
          U.sleep s 5;
          ignore (U.kill s ~pid ~signal:9);
          ignore (U.thread_join s joiner);
          ignore (U.wait s pid));
  ignore (K.spawn k ~prog:"main" ~arg:"");
  K.run k;
  check (Alcotest.result Alcotest.unit err) "joiner woken by kill" (Ok ())
    !join_result

let test_wait_single_collector () =
  (* Regression (blocking-syscall audit): with two threads parked in
     [wait] on the same child, the exit code is delivered to exactly one
     (lowest tid, deterministically); the other sees [E_child], the same
     answer a wait issued after the reap would get.  Before the fix both
     were handed the code — a misdelivered wakeup. *)
  let r1 = ref (Ok (-1)) in
  let r2 = ref (Ok (-1)) in
  let k = K.create () in
  K.register_program k "child" (fun s _ ->
      U.sleep s 5;
      U.exit s 7);
  K.register_program k "main" (fun s _ ->
      match U.spawn s ~prog:"child" ~arg:"" with
      | Error _ -> Alcotest.fail "spawn"
      | Ok pid ->
          let w1 = U.thread_create s (fun s2 -> r1 := U.wait s2 pid) in
          let w2 = U.thread_create s (fun s2 -> r2 := U.wait s2 pid) in
          ignore (U.thread_join s w1);
          ignore (U.thread_join s w2));
  ignore (K.spawn k ~prog:"main" ~arg:"");
  K.run k;
  let results = List.sort compare [ !r1; !r2 ] in
  check Alcotest.bool "one code, one E_child" true
    (results = List.sort compare [ Ok 7; Error Sysabi.E_child ])

(* ------------------------------------------------------------------ *)
(* Pipes, mprotect, rename (extensions) *)

let test_pipe_transfer () =
  ignore
    (run_one (fun _ s ->
         match U.pipe s with
         | Error _ -> Alcotest.fail "pipe"
         | Ok (rfd, wfd) ->
             check Alcotest.bool "distinct fds" true (rfd <> wfd);
             (* Writer thread feeds the pipe while the main thread blocks
                reading. *)
             let t =
               U.thread_create s (fun s2 ->
                   ignore (U.write s2 ~fd:wfd "first ");
                   U.yield s2;
                   ignore (U.write s2 ~fd:wfd "second");
                   ignore (U.close s2 wfd))
             in
             let rec drain acc =
               match U.read s ~fd:rfd ~len:64 with
               | Ok "" -> acc (* EOF *)
               | Ok chunk -> drain (acc ^ chunk)
               | Error _ -> Alcotest.fail "pipe read"
             in
             let all = drain "" in
             ignore (U.thread_join s t);
             check Alcotest.string "stream complete" "first second" all))

let test_pipe_epipe () =
  ignore
    (run_one (fun _ s ->
         match U.pipe s with
         | Error _ -> Alcotest.fail "pipe"
         | Ok (rfd, wfd) ->
             ignore (U.close s rfd);
             check (Alcotest.result Alcotest.int err) "EPIPE analogue"
               (Error Sysabi.E_conn) (U.write s ~fd:wfd "lost")))

let test_pipe_eof_on_writer_exit () =
  (* A blocked reader must see EOF when the writing thread's process keeps
     the fd but closes it explicitly. *)
  ignore
    (run_one (fun _ s ->
         match U.pipe s with
         | Error _ -> Alcotest.fail "pipe"
         | Ok (rfd, wfd) ->
             let t =
               U.thread_create s (fun s2 ->
                   U.sleep s2 3;
                   ignore (U.close s2 wfd))
             in
             (match U.read s ~fd:rfd ~len:8 with
             | Ok "" -> ()
             | Ok _ -> Alcotest.fail "no data was written"
             | Error _ -> Alcotest.fail "read");
             ignore (U.thread_join s t)))

let test_pipe_seek_rejected () =
  ignore
    (run_one (fun _ s ->
         match U.pipe s with
         | Error _ -> Alcotest.fail "pipe"
         | Ok (rfd, _) ->
             check (Alcotest.result Alcotest.int err) "pipes don't seek"
               (Error Sysabi.E_inval) (U.seek s ~fd:rfd ~off:0)))

let test_mprotect_denies_writes () =
  ignore
    (run_one (fun _ s ->
         match U.mmap s ~bytes:8192 with
         | Error _ -> Alcotest.fail "mmap"
         | Ok va ->
             (match U.store s ~va 7L with
             | Ok () -> ()
             | Error _ -> Alcotest.fail "initial store");
             (match U.mprotect s ~va ~writable:false ~executable:false with
             | Ok () -> ()
             | Error _ -> Alcotest.fail "mprotect");
             (* Reads still work, writes fault — on every page. *)
             (match U.load s ~va with
             | Ok 7L -> ()
             | _ -> Alcotest.fail "read after mprotect");
             (match U.store s ~va 8L with
             | Error Sysabi.E_fault -> ()
             | _ -> Alcotest.fail "write must fault");
             (match U.store s ~va:(Int64.add va 4096L) 8L with
             | Error Sysabi.E_fault -> ()
             | _ -> Alcotest.fail "second page must fault too");
             (* And back. *)
             (match U.mprotect s ~va ~writable:true ~executable:false with
             | Ok () -> ()
             | Error _ -> Alcotest.fail "mprotect back");
             match U.store s ~va 9L with
             | Ok () -> ()
             | Error _ -> Alcotest.fail "write after re-enable"))

(* Each address space translates through its own TLB and PWC, so the
   next three cases check that what the caches serve is what the page
   table says. *)

let test_unmap_then_frame_reuse_faults () =
  (* A caches a page and unmaps it; B maps the recycled frame and stores
     a marker.  A's old address must fault and never show B's marker.
     70 frames: 64 reserved, then A's root, B's root and the 4 frames a
     one-page region needs, so B's region gets A's old frames back. *)
  let k = K.create ~mem_bytes:(70 * 4096) () in
  let a_frame = ref 0L and b_frame = ref (-1L) in
  let a_load = ref (Ok 0L) and a_store = ref (Ok ()) in
  K.register_program k "b" (fun s _ ->
      match U.mmap s ~bytes:4096 with
      | Error _ -> Alcotest.fail "B's mmap"
      | Ok va ->
          (match U.mresolve s ~va with Ok pa -> b_frame := pa | Error _ -> ());
          ignore (U.store s ~va 0xB0B0L);
          U.sleep s 20);
  K.register_program k "a" (fun s _ ->
      match U.mmap s ~bytes:4096 with
      | Error _ -> Alcotest.fail "A's mmap"
      | Ok va -> (
          ignore (U.store s ~va 7L);
          ignore (U.load s ~va);
          (match U.mresolve s ~va with Ok pa -> a_frame := pa | Error _ -> ());
          ignore (U.munmap s ~va);
          match U.spawn s ~prog:"b" ~arg:"" with
          | Error _ -> Alcotest.fail "spawn B"
          | Ok pid ->
              U.sleep s 5;
              (* B's region is at the same virtual address as A's was. *)
              a_load := U.load s ~va;
              a_store := U.store s ~va 1L;
              ignore (U.wait s pid)));
  ignore (K.spawn k ~prog:"a" ~arg:"");
  K.run k;
  check Alcotest.int64 "B got A's recycled frame" !a_frame !b_frame;
  check (Alcotest.result Alcotest.int64 err) "A's load faults"
    (Error Sysabi.E_fault) !a_load;
  check (Alcotest.result Alcotest.unit err) "A's store faults"
    (Error Sysabi.E_fault) !a_store

let test_mprotect_every_page () =
  (* All three pages are cached writable before the region turns
     read-only: a store to the last one must fault too. *)
  ignore
    (run_one (fun _ s ->
         match U.mmap s ~bytes:(3 * 4096) with
         | Error _ -> Alcotest.fail "mmap"
         | Ok va ->
             let page i = Int64.add va (Int64.of_int (i * 4096)) in
             for i = 0 to 2 do
               ignore (U.store s ~va:(page i) 3L)
             done;
             (match U.mprotect s ~va ~writable:false ~executable:false with
             | Ok () -> ()
             | Error _ -> Alcotest.fail "mprotect");
             check (Alcotest.result Alcotest.unit err) "store to page 3"
               (Error Sysabi.E_fault)
               (U.store s ~va:(page 2) 4L);
             check (Alcotest.result Alcotest.int64 err) "page 3 unchanged"
               (Ok 3L)
               (U.load s ~va:(page 2))))

let test_warm_load_reads_once () =
  (* Once the futex word's page is cached, a load reads physical memory
     once (the word itself) instead of 4 walk reads plus the word. *)
  let reads = ref (-1) in
  ignore
    (run_one (fun k s ->
         match U.mmap s ~bytes:4096 with
         | Error _ -> Alcotest.fail "mmap"
         | Ok va ->
             let mem = (K.machine k).Bi_hw.Machine.mem in
             ignore (K.user_load s ~va);
             let before = Bi_hw.Phys_mem.loads mem in
             for _ = 1 to 100 do
               ignore (K.user_load s ~va)
             done;
             reads := Bi_hw.Phys_mem.loads mem - before));
  check Alcotest.int "100 warm loads, 100 reads" 100 !reads

let test_mprotect_bad_region () =
  ignore
    (run_one (fun _ s ->
         check (Alcotest.result Alcotest.unit err) "unknown region"
           (Error Sysabi.E_inval)
           (U.mprotect s ~va:0x999000L ~writable:false ~executable:false)))

let test_pipe_closed_on_process_death () =
  (* A reader blocked on a pipe whose writing *process* is killed must see
     EOF (process teardown closes fds). *)
  let got = ref "pending" in
  let k = K.create () in
  K.register_program k "writer" (fun s arg ->
      (* The parent passes the write fd number via arg; same process tree
         cannot share fds here, so instead the writer holds its own pipe
         and the reader thread lives in the same process: kill the whole
         process from outside and ensure nothing hangs. *)
      ignore arg;
      match U.pipe s with
      | Ok (rfd, _wfd) ->
          (* This read can never be satisfied inside this process... *)
          ignore (U.read s ~fd:rfd ~len:8)
      | Error _ -> ());
  K.register_program k "main" (fun s _ ->
      match U.spawn s ~prog:"writer" ~arg:"" with
      | Ok pid ->
          U.sleep s 2;
          (* The child is blocked forever on its own pipe; killing it must
             clean it up and unblock the wait below. *)
          (match U.kill s ~pid ~signal:9 with Ok () | Error _ -> ());
          (match U.wait s pid with
          | Ok 137 -> got := "reaped"
          | Ok n -> got := Printf.sprintf "code %d" n
          | Error _ -> got := "wait failed")
      | Error _ -> got := "spawn failed");
  ignore (K.spawn k ~prog:"main" ~arg:"");
  K.run k;
  check Alcotest.string "blocked-on-pipe process killable" "reaped" !got

let test_rename_syscall () =
  ignore
    (run_one (fun _ s ->
         (match U.openf s ~create:true "/a" with
         | Ok fd ->
             ignore (U.write s ~fd "moved data");
             ignore (U.close s fd)
         | Error _ -> Alcotest.fail "setup");
         (match U.rename s ~src:"/a" ~dst:"/b" with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "rename");
         (match U.openf s "/a" with
         | Error Sysabi.E_noent -> ()
         | _ -> Alcotest.fail "old name must be gone");
         match U.openf s "/b" with
         | Ok fd -> (
             match U.read s ~fd ~len:64 with
             | Ok d -> check Alcotest.string "contents moved" "moved data" d
             | Error _ -> Alcotest.fail "read")
         | Error _ -> Alcotest.fail "new name missing"))

(* ------------------------------------------------------------------ *)
(* The client application contract: trace replay *)

let test_sys_spec_trace_replay () =
  let k = K.create () in
  K.set_trace k true;
  K.register_program k "app" (fun s _ ->
      (match U.openf s ~create:true "/log" with
      | Ok fd ->
          ignore (U.write s ~fd "event one;");
          ignore (U.write s ~fd "event two;");
          ignore (U.seek s ~fd ~off:0);
          ignore (U.read s ~fd ~len:100);
          ignore (U.fstat s ~fd);
          ignore (U.close s fd)
      | Error _ -> ());
      ignore (U.mkdir s "/data");
      ignore (U.mkdir s "/data");
      (* EEXIST *)
      ignore (U.readdir s "/");
      (match U.mmap s ~bytes:12288 with
      | Ok va -> ignore (U.munmap s ~va)
      | Error _ -> ());
      ignore (U.unlink s "/log");
      ignore (U.getpid s));
  ignore (K.spawn k ~prog:"app" ~arg:"");
  K.run k;
  match Sys_spec.check_trace ~next_pid:2 (K.trace k) with
  | Ok (checked, unchecked) ->
      check Alcotest.bool "most events value-checked" true (checked >= 12);
      check Alcotest.int "no unchecked in this trace" 0 unchecked
  | Error msg -> Alcotest.fail msg

let test_sys_spec_catches_divergence () =
  (* Corrupt a recorded response: the replay must flag it. *)
  let k = K.create () in
  K.set_trace k true;
  K.register_program k "app" (fun s _ -> ignore (U.getpid s));
  ignore (K.spawn k ~prog:"app" ~arg:"");
  K.run k;
  let corrupted =
    List.map
      (fun (pid, req, resp) ->
        match resp with
        | Sysabi.R_int v -> (pid, req, Sysabi.R_int (v + 1))
        | other -> (pid, req, other))
      (K.trace k)
  in
  match Sys_spec.check_trace ~next_pid:2 corrupted with
  | Ok _ -> Alcotest.fail "corrupted trace must be rejected"
  | Error _ -> ()

(* Mutation self-check for O_TRUNC: a read after a truncating open that
   returns the pre-truncate bytes must be rejected by the contract. *)
let test_sys_spec_catches_missed_truncate () =
  let k = K.create () in
  K.set_trace k true;
  K.register_program k "app" (fun s _ ->
      (match U.openf s ~create:true "/t" with
      | Ok fd ->
          ignore (U.write s ~fd "stale bytes");
          ignore (U.close s fd)
      | Error _ -> ());
      match U.openf s ~trunc:true "/t" with
      | Ok fd -> ignore (U.read s ~fd ~len:64)
      | Error _ -> ());
  ignore (K.spawn k ~prog:"app" ~arg:"");
  K.run k;
  let trace = K.trace k in
  (match Sys_spec.check_trace ~next_pid:2 trace with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let reads_empty =
    List.exists
      (fun (_, req, resp) ->
        match (req, resp) with
        | Sysabi.Read _, Sysabi.R_data "" -> true
        | _ -> false)
      trace
  in
  check Alcotest.bool "the kernel read the emptied file" true reads_empty;
  let doctored =
    List.map
      (fun (pid, req, resp) ->
        match (req, resp) with
        | Sysabi.Read _, Sysabi.R_data "" -> (pid, req, Sysabi.R_data "stale bytes")
        | _ -> (pid, req, resp))
      trace
  in
  match Sys_spec.check_trace ~next_pid:2 doctored with
  | Ok _ -> Alcotest.fail "a read of pre-truncate bytes must be rejected"
  | Error _ -> ()

(* Randomized programs: generate a random deterministic syscall script,
   run it in a fresh kernel, and replay the recorded trace against the
   contract — the strongest form of the Section 3 check. *)
let prop_random_programs_satisfy_contract =
  let gen_script =
    let open QCheck2.Gen in
    let path = map (fun i -> Printf.sprintf "/f%d" i) (int_bound 3) in
    let dirp = map (fun i -> Printf.sprintf "/d%d" i) (int_bound 2) in
    list_size (int_range 1 25)
      (oneof
         [
           map (fun p -> `Open p) path;
           map (fun p -> `Create p) path;
           (* O_TRUNC on missing paths, directories and written files. *)
           map2 (fun create p -> `Trunc (create, p)) bool
             (oneof [ path; dirp ]);
           map2 (fun fd data -> `Write (fd, data)) (int_range 3 8)
             (string_size ~gen:(char_range 'a' 'z') (int_range 0 600));
           map2 (fun fd len -> `Read (fd, len)) (int_range 3 8) (int_bound 700);
           map2 (fun fd off -> `Seek (fd, off)) (int_range 3 8) (int_bound 900);
           map (fun fd -> `Close fd) (int_range 3 8);
           map (fun fd -> `Fstat fd) (int_range 3 8);
           map (fun p -> `Mkdir p) dirp;
           map (fun p -> `Unlink p) path;
           map (fun p -> `Rmdir p) dirp;
           map2 (fun a b -> `Rename (a, b)) path path;
           map (fun n -> `Mmap (1 + n)) (int_bound 20000);
           return `Readdir;
           return `Getpid;
         ])
  in
  qtest "random programs satisfy the contract" 40 gen_script (fun script ->
      let k = K.create () in
      K.set_trace k true;
      K.register_program k "rand" (fun s _ ->
          List.iter
            (fun step ->
              match step with
              | `Open p -> ignore (U.openf s p)
              | `Create p -> ignore (U.openf s ~create:true p)
              | `Trunc (create, p) -> ignore (U.openf s ~create ~trunc:true p)
              | `Write (fd, data) -> ignore (U.write s ~fd data)
              | `Read (fd, len) -> ignore (U.read s ~fd ~len)
              | `Seek (fd, off) -> ignore (U.seek s ~fd ~off)
              | `Close fd -> ignore (U.close s fd)
              | `Fstat fd -> ignore (U.fstat s ~fd)
              | `Mkdir p -> ignore (U.mkdir s p)
              | `Unlink p -> ignore (U.unlink s p)
              | `Rmdir p -> ignore (U.rmdir s p)
              | `Rename (a, b) -> ignore (U.rename s ~src:a ~dst:b)
              | `Mmap n -> ignore (U.mmap s ~bytes:n)
              | `Readdir -> ignore (U.readdir s "/")
              | `Getpid -> ignore (U.getpid s))
            script);
      (match K.spawn k ~prog:"rand" ~arg:"" with
      | Ok _ -> K.run k
      | Error _ -> ());
      match Sys_spec.check_trace ~next_pid:2 (K.trace k) with
      | Ok _ -> true
      | Error msg -> QCheck2.Test.fail_report msg)

(* ------------------------------------------------------------------ *)
(* Data-race freedom of syscall state (the paper's third obligation):
   the fd offset protocol is equivalent under every interleaving of two
   whole (atomic) syscalls — here modelled at syscall granularity since
   the kernel never preempts inside one.  Each thread's read is one
   atomic step on the shared offset, so [Explore] runs both syscall
   orders. *)

let test_fd_offset_drf_at_syscall_granularity () =
  let contents = "abcdef" in
  let orders = ref [] in
  let make ctx = (Bi_core.Explore.var ctx ~name:"off" 0, Array.make 2 "") in
  let read_2 (off, got) ctx =
    let len o = min 2 (String.length contents - o) in
    let o = Bi_core.Explore.update ctx off (fun o -> o + len o) in
    got.(Bi_core.Explore.self ctx) <- String.sub contents o (len o)
  in
  let final (off, got) =
    orders := (got.(0), got.(1)) :: !orders;
    if
      Bi_core.Explore.peek off = 4
      && List.sort compare (Array.to_list got) = [ "ab"; "cd" ]
    then None
    else Some (Printf.sprintf "read %S and %S" got.(0) got.(1))
  in
  (match
     Bi_core.Explore.run ~make ~threads:[ read_2; read_2 ] ~final ()
   with
  | Bi_core.Explore.Pass stats ->
      check Alcotest.bool "complete" true stats.Bi_core.Explore.complete
  | Bi_core.Explore.Fail (f, _) ->
      Alcotest.fail (Bi_core.Explore.render_failure f));
  (* Whole-syscall atomicity: both orders ran, and each read abcd. *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "both syscall orders"
    [ ("ab", "cd"); ("cd", "ab") ]
    (List.sort compare !orders)

(* Whole-kernel stress: several processes, each multi-threaded, hammering
   the filesystem, memory and pipes concurrently; the run must terminate,
   every process must be reapable, and the filesystem must stay
   consistent. *)
let test_kernel_stress () =
  let k = K.create ~mem_bytes:(64 * 1024 * 1024) () in
  K.register_program k "stressor" (fun s arg ->
      let my_dir = "/p" ^ arg in
      ignore (U.mkdir s my_dir);
      let m = Bi_ulib.Umutex.create s in
      let written = ref 0 in
      let worker i s2 =
        let path = Printf.sprintf "%s/t%d" my_dir i in
        match U.openf s2 ~create:true path with
        | Error _ -> ()
        | Ok fd ->
            for round = 1 to 5 do
              ignore (U.write s2 ~fd (String.make (100 * round) 'w'));
              Bi_ulib.Umutex.with_lock s2 m (fun () ->
                  let v = !written in
                  U.yield s2;
                  written := v + 1);
              U.yield s2
            done;
            ignore (U.close s2 fd)
      in
      let tids = List.init 3 (fun i -> U.thread_create s (worker i)) in
      (match U.mmap s ~bytes:32768 with
      | Ok va ->
          for p = 0 to 7 do
            ignore (U.store s ~va:(Int64.add va (Int64.of_int (p * 4096))) (Int64.of_int p))
          done;
          ignore (U.munmap s ~va)
      | Error _ -> ());
      List.iter (fun t -> ignore (U.thread_join s t)) tids;
      U.exit s !written);
  K.register_program k "main" (fun s _ ->
      let pids =
        List.filter_map
          (fun i ->
            match U.spawn s ~prog:"stressor" ~arg:(string_of_int i) with
            | Ok pid -> Some pid
            | Error _ -> None)
          [ 0; 1; 2; 3 ]
      in
      List.iter
        (fun pid ->
          match U.wait s pid with
          | Ok 15 -> () (* 3 threads x 5 rounds *)
          | Ok n -> Alcotest.failf "stressor returned %d, expected 15" n
          | Error _ -> Alcotest.fail "wait failed")
        pids);
  ignore (K.spawn k ~prog:"main" ~arg:"");
  K.run k;
  (* Post-mortem: the filesystem survived and holds what was written. *)
  let fs = K.fs k in
  List.iter
    (fun i ->
      let dir = Printf.sprintf "/p%d" i in
      match Bi_fs.Fs.readdir fs dir with
      | Ok entries -> check Alcotest.int (dir ^ " populated") 3 (List.length entries)
      | Error _ -> Alcotest.failf "%s missing" dir)
    [ 0; 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Cross-kernel networking via syscalls *)

let test_udp_between_kernels () =
  let got = ref "" in
  let a = K.create ~ip:(Bi_net.Ip.addr_of_string "10.0.0.1") () in
  let b = K.create ~ip:(Bi_net.Ip.addr_of_string "10.0.0.2") () in
  K.connect a b;
  K.register_program a "rx" (fun s _ ->
      ignore (U.udp_bind s 53);
      match U.udp_recv s 53 with
      | Ok (_, _, data) -> got := data
      | Error _ -> ());
  K.register_program b "tx" (fun s _ ->
      U.sleep s 2;
      ignore
        (U.udp_send s ~dst_ip:(Bi_net.Ip.addr_of_string "10.0.0.1")
           ~dst_port:53 ~src_port:1000 "query"));
  ignore (K.spawn a ~prog:"rx" ~arg:"");
  ignore (K.spawn b ~prog:"tx" ~arg:"");
  K.run_pair a b;
  check Alcotest.string "datagram crossed kernels" "query" !got

let test_nonblocking_recv_eagain () =
  ignore
    (run_one (fun _ s ->
         ignore (U.udp_bind s 99);
         check
           (Alcotest.result
              (Alcotest.triple Alcotest.int32 Alcotest.int Alcotest.string)
              err)
           "EAGAIN when empty" (Error Sysabi.E_again)
           (U.udp_recv s ~blocking:false 99)))

(* A recv on a port nobody bound, or an accept on a port nobody listens
   on, can never complete, so both fail at once, blocking or not. *)
let test_recv_unbound_einval () =
  let got = ref [] in
  ignore
    (run_one (fun _ s ->
         got := [ U.udp_recv s ~blocking:false 53; U.udp_recv s 53 ]));
  check
    (Alcotest.list
       (Alcotest.result
          (Alcotest.triple Alcotest.int32 Alcotest.int Alcotest.string)
          err))
    "non-blocking, blocking"
    [ Error Sysabi.E_inval; Error Sysabi.E_inval ]
    !got

let test_accept_unlistened_einval () =
  let got = ref [] in
  ignore
    (run_one (fun _ s ->
         got := [ U.tcp_accept s ~blocking:false 80; U.tcp_accept s 80 ]));
  check
    (Alcotest.list (Alcotest.result Alcotest.int err))
    "non-blocking, blocking"
    [ Error Sysabi.E_inval; Error Sysabi.E_inval ]
    !got

(* ------------------------------------------------------------------ *)
(* Timed tcp_recv *)

(* Results are copied out of the kernel threads into refs and checked
   after the run: an exception inside a kernel thread only ends that
   thread. *)

let ip_a = Bi_net.Ip.addr_of_string "10.0.0.1"

(* Kernel [a] accepts one connection on port 80 and runs [server] on it;
   kernel [b] connects and runs [client].  Returns [a]. *)
let tcp_pair ~server ~client =
  let a = K.create ~ip:ip_a () in
  let b = K.create ~ip:(Bi_net.Ip.addr_of_string "10.0.0.2") () in
  K.connect a b;
  K.register_program a "srv" (fun s _ ->
      ignore (U.tcp_listen s 80);
      match U.tcp_accept s 80 with Ok conn -> server s conn | Error _ -> ());
  K.register_program b "cli" (fun s _ ->
      match U.tcp_connect s ~ip:ip_a ~port:80 with
      | Ok conn -> client s conn
      | Error _ -> ());
  ignore (K.spawn a ~prog:"srv" ~arg:"");
  ignore (K.spawn b ~prog:"cli" ~arg:"");
  K.run_pair a b;
  a

let ticks_since s t0 = Int64.to_int (Int64.sub (U.now s) t0)

let recv_result = Alcotest.result Alcotest.string err

(* The server's [tcp_recv ~timeout] while the client sends "ping"
   [delay] ticks after connecting: the result, and the ticks (both
   kernels share one clock) at which the recv was issued, the ping sent
   and the recv returned. *)
type timed = {
  got : (string, Sysabi.err) result;
  issued : int;
  sent : int;
  returned : int;
}

let timed_recv ~timeout ~delay =
  let got = ref (Error Sysabi.E_nosys) in
  let issued = ref (-1) and sent = ref (-1) and returned = ref (-1) in
  let now s = Int64.to_int (U.now s) in
  ignore
    (tcp_pair
       ~server:(fun s conn ->
         issued := now s;
         got := U.tcp_recv s ~timeout conn;
         returned := now s)
       ~client:(fun s conn ->
         U.sleep s delay;
         sent := now s;
         ignore (U.tcp_send s ~conn "ping")));
  { got = !got; issued = !issued; sent = !sent; returned = !returned }

let test_timed_recv_data_before_deadline () =
  let untimed = timed_recv ~timeout:0 ~delay:20 in
  let timed = timed_recv ~timeout:200 ~delay:20 in
  check recv_result "no deadline: data" (Ok "ping") untimed.got;
  check recv_result "deadline: data" (Ok "ping") timed.got;
  check Alcotest.int "returned the tick the data arrived" untimed.returned
    timed.returned;
  check Alcotest.bool "before the deadline" true
    (timed.returned - timed.issued < 200)

let test_timed_recv_expires_exactly () =
  let recv = ref (Ok "") and recv_took = ref (-1) in
  ignore
    (tcp_pair
       ~server:(fun s conn ->
         let t0 = U.now s in
         recv := U.tcp_recv s ~timeout:7 conn;
         recv_took := ticks_since s t0)
       ~client:(fun s _ -> U.sleep s 50));
  check recv_result "recv: E_again" (Error Sysabi.E_again) !recv;
  check Alcotest.int "recv: exactly 7 ticks" 7 !recv_took

let test_timed_recv_peer_close () =
  let got = ref (Error Sysabi.E_nosys) and took = ref (-1) in
  ignore
    (tcp_pair
       ~server:(fun s conn ->
         let t0 = U.now s in
         got := U.tcp_recv s ~timeout:500 conn;
         took := ticks_since s t0)
       ~client:(fun s conn ->
         U.sleep s 10;
         ignore (U.tcp_close s ~conn)));
  check recv_result "peer close is \"\"" (Ok "") !got;
  check Alcotest.bool "before the deadline" true (!took < 500)

let test_untimed_recv_waits () =
  let r = timed_recv ~timeout:0 ~delay:300 in
  check recv_result "data, however late" (Ok "ping") r.got;
  check Alcotest.bool "returned after the send" true (r.returned > r.sent);
  check Alcotest.bool "waited for it" true (r.returned - r.issued > 200)

let test_kill_parked_timed_recv () =
  (* The child parks in a recv with a 1000-tick deadline and is killed
     10 ticks in.  It is reaped with 128+9, and when the deadline passes
     (the client keeps the world running past it) nothing wakes it. *)
  let code = ref (Ok 0) and returned = ref false and killed_at = ref (-1) in
  let a =
    tcp_pair
      ~server:(fun s conn ->
        K.register_program (K.sys_kernel s) "reader" (fun cs _ ->
            ignore (U.tcp_recv cs ~timeout:1000 conn);
            returned := true);
        match U.spawn s ~prog:"reader" ~arg:"" with
        | Ok pid ->
            let t0 = U.now s in
            U.sleep s 10;
            ignore (U.kill s ~pid ~signal:9);
            code := U.wait s pid;
            killed_at := ticks_since s t0
        | Error _ -> ())
      ~client:(fun s _ -> U.sleep s 1500)
  in
  check (Alcotest.result Alcotest.int err) "reaped, code 128+9" (Ok 137) !code;
  check Alcotest.int "reaped when killed" 10 !killed_at;
  check Alcotest.bool "the parked recv never returned" false !returned;
  check Alcotest.int "only the server's own zombie is left" 1
    (K.process_count a)

let test_negative_timeout_einval () =
  let recv = ref (Ok "") in
  ignore
    (tcp_pair
       ~server:(fun s conn -> recv := U.tcp_recv s ~timeout:(-1) conn)
       ~client:(fun s conn -> ignore (U.tcp_recv s conn)));
  check recv_result "recv" (Error Sysabi.E_inval) !recv

(* ------------------------------------------------------------------ *)
(* Misc syscalls *)

let test_log_and_time () =
  let k =
    run_one (fun _ s ->
        U.log s "first";
        let t0 = U.now s in
        U.sleep s 5;
        let t1 = U.now s in
        check Alcotest.bool "time advanced by sleep" true
          (Int64.sub t1 t0 >= 5L);
        U.log s "second")
  in
  check Alcotest.string "serial log" "first\nsecond\n" (K.serial_output k)

let test_yield_fairness () =
  (* Two threads alternating via yield interleave their writes. *)
  let k = K.create () in
  let order = Buffer.create 16 in
  K.register_program k "main" (fun s _ ->
      let t =
        U.thread_create s (fun s2 ->
            for _ = 1 to 3 do
              Buffer.add_char order 'b';
              U.yield s2
            done)
      in
      for _ = 1 to 3 do
        Buffer.add_char order 'a';
        U.yield s
      done;
      ignore (U.thread_join s t));
  ignore (K.spawn k ~prog:"main" ~arg:"");
  K.run k;
  (* Round-robin guarantees strict alternation; which thread leads depends
     on queue position after thread_create. *)
  let got = Buffer.contents order in
  check Alcotest.bool
    (Printf.sprintf "strict alternation (got %S)" got)
    true
    (got = "ababab" || got = "bababa")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bi_kernel"
    [
      ( "abi",
        abi_vc_cases ()
        @ [ Alcotest.test_case "golden bytes" `Quick test_codec_golden_bytes ] );
      ( "scheduler-futex",
        [
          Alcotest.test_case "scheduler fifo" `Quick test_scheduler_fifo;
          Alcotest.test_case "scheduler as seq-ds" `Quick test_scheduler_as_seq_ds;
          Alcotest.test_case "futex fifo wake" `Quick test_futex_fifo_wake;
          Alcotest.test_case "futex key isolation" `Quick test_futex_keys_isolated;
          Alcotest.test_case "futex remove thread" `Quick test_futex_remove_thread;
        ] );
      ( "process",
        [
          Alcotest.test_case "exit code via wait" `Quick test_exit_code_via_wait;
          Alcotest.test_case "wait blocks then resumes" `Quick test_wait_before_exit_blocks;
          Alcotest.test_case "wait non-child" `Quick test_wait_not_child;
          Alcotest.test_case "kill terminates" `Quick test_kill_terminates;
          Alcotest.test_case "kill signal 0 probes" `Quick test_kill_signal_zero_probes;
          Alcotest.test_case "spawn unknown" `Quick test_spawn_unknown_program;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "wait: single collector" `Quick test_wait_single_collector;
          Alcotest.test_case "spawn/reap cycles free every frame" `Quick
            test_spawn_reap_frees_frames;
          Alcotest.test_case "spawn without frames is E_nomem" `Quick
            test_spawn_out_of_frames;
          Alcotest.test_case "spawn/reap cycles release frame memory" `Quick
            test_spawn_reap_releases_memory;
          Alcotest.test_case "reaped processes leave nothing behind" `Quick
            test_reaped_processes_leave_nothing;
        ] );
      ( "fd",
        [
          Alcotest.test_case "read_spec semantics" `Quick test_fd_read_spec_semantics;
          Alcotest.test_case "fd isolation" `Quick test_fd_isolation_between_processes;
          Alcotest.test_case "EBADF cases" `Quick test_fd_badf_cases;
          Alcotest.test_case "independent offsets" `Quick test_two_fds_independent_offsets;
        ] );
      ( "memory",
        [
          Alcotest.test_case "mmap through verified pt" `Quick test_mmap_through_verified_pt;
          Alcotest.test_case "batched mmap + fragmentation fallback" `Quick
            test_mmap_batched_and_fragmented_fallback;
          Alcotest.test_case "bad args" `Quick test_mmap_rejects_bad_args;
          Alcotest.test_case "address-space isolation" `Quick test_address_spaces_isolated;
        ] );
      ( "threads",
        [
          Alcotest.test_case "join + shared memory" `Quick test_thread_join_and_shared_memory;
          Alcotest.test_case "futex value mismatch" `Quick test_futex_wait_value_mismatch;
          Alcotest.test_case "futex wake count" `Quick test_futex_wake_count;
          Alcotest.test_case "futex fault" `Quick test_futex_fault_on_unmapped;
          Alcotest.test_case "join finished/absent" `Quick
            test_thread_join_finished_and_absent;
          Alcotest.test_case "kill wakes cross-process joiner" `Quick
            test_kill_wakes_cross_process_joiner;
          Alcotest.test_case "self-join is E_inval" `Quick test_self_join_einval;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "pipe transfer" `Quick test_pipe_transfer;
          Alcotest.test_case "pipe EPIPE" `Quick test_pipe_epipe;
          Alcotest.test_case "pipe EOF" `Quick test_pipe_eof_on_writer_exit;
          Alcotest.test_case "pipe seek rejected" `Quick test_pipe_seek_rejected;
          Alcotest.test_case "mprotect denies writes" `Quick test_mprotect_denies_writes;
          Alcotest.test_case "mprotect bad region" `Quick test_mprotect_bad_region;
          Alcotest.test_case "unmap then frame reuse faults" `Quick
            test_unmap_then_frame_reuse_faults;
          Alcotest.test_case "mprotect reaches every page" `Quick
            test_mprotect_every_page;
          Alcotest.test_case "warm load reads once" `Quick test_warm_load_reads_once;
          Alcotest.test_case "kill unblocks pipe reader" `Quick
            test_pipe_closed_on_process_death;
          Alcotest.test_case "rename syscall" `Quick test_rename_syscall;
        ] );
      ( "contract",
        [
          Alcotest.test_case "trace replay" `Quick test_sys_spec_trace_replay;
          Alcotest.test_case "divergence caught" `Quick test_sys_spec_catches_divergence;
          Alcotest.test_case "missed truncate caught" `Quick
            test_sys_spec_catches_missed_truncate;
          prop_random_programs_satisfy_contract;
          Alcotest.test_case "fd offset DRF" `Quick test_fd_offset_drf_at_syscall_granularity;
        ] );
      ( "net-syscalls",
        [
          Alcotest.test_case "udp across kernels" `Quick test_udp_between_kernels;
          Alcotest.test_case "nonblocking EAGAIN" `Quick test_nonblocking_recv_eagain;
          Alcotest.test_case "recv, unbound port: E_inval" `Quick
            test_recv_unbound_einval;
          Alcotest.test_case "accept, no listener: E_inval" `Quick
            test_accept_unlistened_einval;
          Alcotest.test_case "timed recv: data before the deadline" `Quick
            test_timed_recv_data_before_deadline;
          Alcotest.test_case "timed recv/accept: E_again at the deadline" `Quick
            test_timed_recv_expires_exactly;
          Alcotest.test_case "timed recv: peer close" `Quick test_timed_recv_peer_close;
          Alcotest.test_case "recv without deadline waits" `Quick test_untimed_recv_waits;
          Alcotest.test_case "kill a parked timed recv" `Quick test_kill_parked_timed_recv;
          Alcotest.test_case "negative timeout is E_inval" `Quick
            test_negative_timeout_einval;
        ] );
      ( "misc",
        [
          Alcotest.test_case "log and time" `Quick test_log_and_time;
          Alcotest.test_case "yield fairness" `Quick test_yield_fairness;
          Alcotest.test_case "whole-kernel stress" `Quick test_kernel_stress;
        ] );
    ]


