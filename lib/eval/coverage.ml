module K = Bi_kernel.Kernel
module U = Bi_kernel.Usys

let catching f = try f () with _ -> false

(* ------------------------------------------------------------------ *)

let kernel_memory_safety () =
  catching (fun () ->
      let mem = Bi_hw.Phys_mem.create ~size:8192 in
      let oob =
        match Bi_hw.Phys_mem.read_u64 mem 9000L with
        | exception Bi_hw.Phys_mem.Bad_address _ -> true
        | _ -> false
      in
      let misaligned =
        match Bi_hw.Phys_mem.read_u64 mem 3L with
        | exception Bi_hw.Phys_mem.Bad_address _ -> true
        | _ -> false
      in
      let negative =
        match Bi_hw.Phys_mem.read_u8 mem (-1L) with
        | exception Bi_hw.Phys_mem.Bad_address _ -> true
        | _ -> false
      in
      oob && misaligned && negative)

let spec_refinement () =
  catching (fun () ->
      (* Re-discharge a slice of the page-table suite. *)
      let sample =
        List.filteri (fun i _ -> i mod 10 = 0) (Bi_pt.Pt_refinement.all ())
      in
      Bi_core.Verifier.all_proved (Bi_core.Verifier.discharge sample))

let parallel_discharge () =
  catching (fun () ->
      (* The verifier itself is a multicore subsystem: a parallel
         discharge must prove the same sample with identical per-VC
         outcomes in the same order as the sequential path. *)
      let sample =
        List.filteri (fun i _ -> i mod 20 = 0) (Bi_pt.Pt_refinement.all ())
      in
      let seq = Bi_core.Verifier.discharge ~jobs:1 sample in
      let par = Bi_core.Verifier.discharge ~jobs:2 sample in
      Bi_core.Verifier.all_proved par
      && List.for_all2
           (fun (a : Bi_core.Verifier.result) (b : Bi_core.Verifier.result) ->
             a.Bi_core.Verifier.vc.Bi_core.Vc.id
             = b.Bi_core.Verifier.vc.Bi_core.Vc.id
             && a.Bi_core.Verifier.outcome = b.Bi_core.Verifier.outcome)
           seq.Bi_core.Verifier.results par.Bi_core.Verifier.results)

module Counter = Bi_nr.Counter

module Nr_counter = Bi_nr.Nr.Make (Counter)

let multiprocessor () =
  catching (fun () ->
      let nr = Nr_counter.create ~replicas:2 ~threads_per_replica:2 () in
      let worker thread () =
        for _ = 1 to 100 do
          ignore (Nr_counter.execute nr ~thread Counter.Incr : int)
        done
      in
      let d1 = Domain.spawn (worker 0) in
      let d2 = Domain.spawn (worker 2) in
      Domain.join d1;
      Domain.join d2;
      Nr_counter.sync_all nr;
      let r0 = Nr_counter.peek nr ~replica:0 (fun c -> !c) in
      let r1 = Nr_counter.peek nr ~replica:1 (fun c -> !c) in
      let read = Nr_counter.execute nr ~thread:1 Counter.Read in
      r0 = 200 && r1 = 200 && read = 200)

let process_centric_spec () =
  catching (fun () ->
      let k = K.create () in
      K.set_trace k true;
      K.register_program k "probe" (fun s _ ->
          match U.openf s ~create:true "/probe" with
          | Ok fd ->
              ignore (U.write s ~fd "0123456789");
              ignore (U.seek s ~fd ~off:4);
              ignore (U.read s ~fd ~len:3);
              ignore (U.close s fd)
          | Error _ -> ());
      (match K.spawn k ~prog:"probe" ~arg:"" with
      | Ok _ -> K.run k
      | Error _ -> ());
      match Bi_kernel.Sys_spec.check_trace ~next_pid:2 (K.trace k) with
      | Ok (checked, _) -> checked >= 5
      | Error _ -> false)

(* ------------------------------------------------------------------ *)

let scheduler () =
  catching (fun () ->
      let s = Bi_kernel.Scheduler.create () in
      Bi_kernel.Scheduler.enqueue s 1;
      Bi_kernel.Scheduler.enqueue s 2;
      Bi_kernel.Scheduler.dequeue s = Some 1
      && Bi_kernel.Scheduler.dequeue s = Some 2
      && Bi_kernel.Scheduler.dequeue s = None)

let memory_management () =
  catching (fun () ->
      let k = K.create () in
      let ok = ref false in
      K.register_program k "mm" (fun s _ ->
          match U.mmap s ~bytes:16384 with
          | Ok va -> (
              (match U.store s ~va:(Int64.add va 4096L) 77L with
              | Ok () -> ()
              | Error _ -> ());
              match (U.load s ~va:(Int64.add va 4096L), U.munmap s ~va) with
              | Ok 77L, Ok () -> ok := true
              | _ -> ())
          | Error _ -> ());
      (match K.spawn k ~prog:"mm" ~arg:"" with
      | Ok _ -> K.run k
      | Error _ -> ());
      !ok)

let filesystem () =
  catching (fun () ->
      let disk = Bi_hw.Device.Disk.create ~sectors:2048 () in
      let fs = Bi_fs.Fs.mkfs (Bi_fs.Block_dev.of_disk disk) in
      match Bi_fs.Fs.create fs "/f" with
      | Error _ -> false
      | Ok () -> (
          match Bi_fs.Fs.resolve fs "/f" with
          | Error _ -> false
          | Ok ino -> (
              match
                Bi_fs.Fs.write_ino fs ~ino ~off:0 (Bytes.of_string "persist")
              with
              | Error _ -> false
              | Ok () -> (
                  match Bi_fs.Fs.read_ino fs ~ino ~off:0 ~len:7 with
                  | Ok b -> Bytes.to_string b = "persist"
                  | Error _ -> false))))

let drivers () =
  catching (fun () ->
      (* The disk reads back what it was written, the NIC delivers a
         frame and the timer counts its ticks. *)
      let timer = Bi_hw.Device.Timer.create () in
      for _ = 1 to 3 do
        Bi_hw.Device.Timer.tick timer
      done;
      let timer_ok = Bi_hw.Device.Timer.now timer = 3L in
      let disk = Bi_hw.Device.Disk.create ~sectors:16 () in
      let sector = Bytes.make Bi_hw.Device.Disk.sector_size 'd' in
      Bi_hw.Device.Disk.write_sector disk 3 sector;
      let disk_ok = Bi_hw.Device.Disk.read_sector disk 3 = sector in
      let a = Bi_hw.Device.Nic.create ~mac:"\x02\x00\x00\x00\x00\x01" () in
      let b = Bi_hw.Device.Nic.create ~mac:"\x02\x00\x00\x00\x00\x02" () in
      Bi_hw.Device.Nic.connect a b;
      Bi_hw.Device.Nic.transmit a (Bytes.of_string "frame");
      ignore (Bi_hw.Device.Nic.deliver a : int);
      let nic_ok =
        match Bi_hw.Device.Nic.receive b with
        | Some f -> Bytes.to_string f = "frame"
        | None -> false
      in
      timer_ok && disk_ok && nic_ok)

let process_management () =
  catching (fun () ->
      let k = K.create () in
      let ok = ref false in
      K.register_program k "child" (fun s _ -> U.exit s 7);
      K.register_program k "parent" (fun s _ ->
          match U.spawn s ~prog:"child" ~arg:"" with
          | Ok pid -> (
              match U.wait s pid with Ok 7 -> ok := true | _ -> ())
          | Error _ -> ());
      (match K.spawn k ~prog:"parent" ~arg:"" with
      | Ok _ -> K.run k
      | Error _ -> ());
      !ok)

let threads_sync () =
  catching (fun () ->
      let k = K.create () in
      let ok = ref false in
      K.register_program k "ts" (fun s _ ->
          let m = Bi_ulib.Umutex.create s in
          let shared = ref 0 in
          let worker s2 =
            Bi_ulib.Umutex.with_lock s2 m (fun () ->
                let v = !shared in
                U.yield s2;
                shared := v + 1)
          in
          let tids = List.init 4 (fun _ -> U.thread_create s worker) in
          List.iter (fun tid -> ignore (U.thread_join s tid)) tids;
          if !shared = 4 then ok := true);
      (match K.spawn k ~prog:"ts" ~arg:"" with
      | Ok _ -> K.run k
      | Error _ -> ());
      !ok)

let network_stack () =
  catching (fun () ->
      let nic_a = Bi_hw.Device.Nic.create ~mac:"\x02\x00\x00\x00\x00\x0a" () in
      let nic_b = Bi_hw.Device.Nic.create ~mac:"\x02\x00\x00\x00\x00\x0b" () in
      Bi_hw.Device.Nic.connect nic_a nic_b;
      let a =
        Bi_net.Stack.create ~nic:nic_a ~ip:(Bi_net.Ip.addr_of_string "10.9.0.1")
      in
      let b =
        Bi_net.Stack.create ~nic:nic_b ~ip:(Bi_net.Ip.addr_of_string "10.9.0.2")
      in
      Bi_net.Stack.tcp_listen b 80;
      let ca =
        Bi_net.Stack.tcp_connect a
          ~dst_ip:(Bi_net.Ip.addr_of_string "10.9.0.2") ~dst_port:80
      in
      Bi_net.Stack.pump [ a; b ];
      match Bi_net.Stack.tcp_accept b 80 with
      | None -> false
      | Some cb ->
          Bi_net.Stack.tcp_send a ca (Bytes.of_string "probe");
          Bi_net.Stack.pump_ticks ~rounds:16 [ a; b ];
          Bytes.to_string (Bi_net.Stack.tcp_recv b cb) = "probe")

let system_libraries () =
  catching (fun () ->
      let codec = Bi_ulib.Serde.(list (pair string varint)) in
      let v = [ ("alpha", 1); ("beta", 200); ("gamma", 70000) ] in
      let serde_ok =
        Bi_ulib.Serde.decode codec (Bi_ulib.Serde.encode codec v) = Some v
      in
      let arena = Bi_ulib.Ualloc.create ~size:1024 in
      let alloc_ok =
        match Bi_ulib.Ualloc.alloc arena 100 with
        | Some off ->
            Bi_ulib.Ualloc.free arena off;
            Bi_ulib.Ualloc.check_invariants arena
        | None -> false
      in
      let buf = Bytes.make 32 '\000' in
      Bi_ulib.Ustring.strcpy ~dst:buf ~dst_off:0 "hello";
      let str_ok = Bi_ulib.Ustring.strlen buf ~off:0 = 5 in
      serde_ok && alloc_ok && str_ok)
