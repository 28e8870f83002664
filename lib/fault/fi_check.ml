module Vc = Bi_core.Vc
module Gen = Bi_core.Gen
module Block_dev = Bi_fs.Block_dev
module Crash_explore = Bi_fs.Crash_explore
module Disk = Bi_hw.Device.Disk
module Wal = Bi_fs.Wal
module Fs = Bi_fs.Fs
module Fs_spec = Bi_fs.Fs_spec
module Fs_refinement = Bi_fs.Fs_refinement
module Tcp = Bi_net.Tcp
module Serde = Bi_ulib.Serde
module Nr = Bi_nr.Nr

let bs = Block_dev.block_size
let blk c = Bytes.make bs c

let plain_dev sectors = Block_dev.of_disk (Disk.create ~sectors ())

(* ------------------------------------------------------------------ *)
(* Fault-plan obligations: determinism, replay, enumeration, shrink    *)

let consume plan n = List.init n (fun _ -> Fault_plan.next ~len:64 plan)

let plan_vcs () =
  let open Fault_plan in
  [
    Vc.prop ~id:"fi/plan/seeded-deterministic" ~category:"fi/plan" (fun () ->
        let mk () = seeded ~name:"det" ~seed:7 () in
        consume (mk ()) 50 = consume (mk ()) 50);
    Vc.prop ~id:"fi/plan/seeds-differ" ~category:"fi/plan" (fun () ->
        let t1 = consume (seeded ~name:"differ" ~seed:1 ()) 100 in
        let t2 = consume (seeded ~name:"differ" ~seed:2 ()) 100 in
        t1 <> t2);
    Vc.prop ~id:"fi/plan/replay-fidelity" ~category:"fi/plan" (fun () ->
        let p = seeded ~name:"replay" ~seed:3 () in
        let orig = consume p 40 in
        let r = replay_of p in
        consume r 40 = orig && next r = Pass);
    Vc.prop ~id:"fi/plan/script-beyond-end" ~category:"fi/plan" (fun () ->
        let p = script [ Drop ] in
        next p = Drop
        && List.for_all (( = ) Pass) (consume p 10)
        && faults p = 1 && sites p = 11);
    Vc.prop ~id:"fi/plan/limit-bounds-faults" ~category:"fi/plan" (fun () ->
        let rates =
          { drop = 300; duplicate = 200; reorder = 100; corrupt = 100;
            stall = 100; max_stall = 3 }
        in
        let p = seeded ~name:"limit" ~seed:5 ~rates ~limit:5 () in
        ignore (consume p 500);
        faults p = 5);
    Vc.prop ~id:"fi/plan/enumerate-count" ~category:"fi/plan" (fun () ->
        let all = enumerate ~sites:3 ~choices:[ Pass; Drop; Duplicate ] in
        List.length all = 27
        && List.length (List.sort_uniq compare all) = 27
        && List.for_all (fun p -> List.length p = 3) all);
    Vc.prop ~id:"fi/plan/shrink-minimal" ~category:"fi/plan" (fun () ->
        (* Failing iff some Drop survives at site >= 2: the shrink must
           neutralise everything except one load-bearing Drop. *)
        let fails p = List.exists (( = ) Drop) (List.filteri (fun i _ -> i >= 2) p) in
        let noisy = [ Drop; Duplicate; Drop; Drop; Corrupt { pos = 0; bits = 1 } ] in
        let s = shrink ~fails noisy in
        s = [ Pass; Pass; Pass; Drop ]
        && fails s
        && (* 1-minimal: neutralising the survivor un-fails the plan *)
        not (fails [ Pass; Pass; Pass; Pass ]));
    Vc.prop ~id:"fi/plan/shrink-deterministic" ~category:"fi/plan" (fun () ->
        let fails p = List.length (List.filter (( <> ) Pass) p) >= 2 in
        let noisy = [ Drop; Stall 2; Duplicate; Reorder ] in
        shrink ~fails noisy = shrink ~fails noisy
        && fails (shrink ~fails noisy));
    Vc.prop ~id:"fi/plan/corrupt-bytes-seeded" ~category:"fi/plan" (fun () ->
        let input = Bytes.of_string "the quick brown fox" in
        let out seed = corrupt_bytes (Gen.of_string seed) input in
        out "a" = out "a"
        && (* fresh buffer, never the input itself *)
        not (out "a" == input)
        && Bytes.length (out "a") <= Bytes.length input
        && Bytes.to_string input = "the quick brown fox");
  ]

(* ------------------------------------------------------------------ *)
(* Faulty-disk obligations                                             *)

let disk_vcs () =
  let open Fault_plan in
  [
    Vc.prop ~id:"fi/disk/no-fault-transparent" ~category:"fi/disk" (fun () ->
        (* Under the empty plan the faulty disk is indistinguishable from
           the plain device on a random op soup. *)
        let id = "fi/disk/no-fault-transparent" in
        let g = Gen.of_string id in
        let fd = Faulty_disk.create ~sectors:16 () in
        let faulty = Faulty_disk.to_block_dev fd in
        let plain = plain_dev 16 in
        let ok = ref true in
        for _ = 1 to 200 do
          match Gen.int g 4 with
          | 0 | 1 ->
              let s = Gen.int g 16 in
              let b = Bytes.init bs (fun _ -> Char.chr (Gen.int g 256)) in
              Block_dev.write faulty s b;
              Block_dev.write plain s b
          | 2 ->
              let s = Gen.int g 16 in
              if Block_dev.read faulty s <> Block_dev.read plain s then
                ok := false
          | _ ->
              Block_dev.flush faulty;
              Block_dev.flush plain
        done;
        let cf = Block_dev.crash_with faulty ~keep_unflushed:max_int in
        let cp = Block_dev.crash_with plain ~keep_unflushed:max_int in
        for s = 0 to 15 do
          if Block_dev.read cf s <> Block_dev.read cp s then ok := false
        done;
        !ok);
    Vc.prop ~id:"fi/disk/bit-rot-transient" ~category:"fi/disk" (fun () ->
        let plan = script [ Pass; Corrupt { pos = 3; bits = 0xff } ] in
        let fd = Faulty_disk.create ~plan ~sectors:4 () in
        let dev = Faulty_disk.to_block_dev fd in
        let b = blk 'X' in
        Block_dev.write dev 1 b;
        let rotten = Block_dev.read dev 1 in
        let clean = Block_dev.read dev 1 in
        rotten <> b && clean = b);
    Vc.prop ~id:"fi/disk/drop-loses-write" ~category:"fi/disk" (fun () ->
        let fd = Faulty_disk.create ~plan:(script [ Drop ]) ~sectors:4 () in
        let dev = Faulty_disk.to_block_dev fd in
        Block_dev.write dev 1 (blk 'X');
        Block_dev.flush dev;
        Block_dev.read dev 1 = blk '\000' && Faulty_disk.injected fd = 1);
    Vc.prop ~id:"fi/disk/stall-released-by-barrier" ~category:"fi/disk"
      (fun () ->
        let fd = Faulty_disk.create ~plan:(script [ Stall 5 ]) ~sectors:4 () in
        let dev = Faulty_disk.to_block_dev fd in
        Block_dev.write dev 1 (blk 'Z');
        (* In flight but readable (program order)... *)
        let before = Block_dev.read dev 1 in
        Block_dev.flush dev;
        (* ...and the barrier forces it durable despite the stall. *)
        let crashed = Block_dev.crash_with dev ~keep_unflushed:0 in
        before = blk 'Z' && Block_dev.read crashed 1 = blk 'Z');
    Vc.prop ~id:"fi/disk/stall-lost-on-crash" ~category:"fi/disk" (fun () ->
        let fd = Faulty_disk.create ~plan:(script [ Stall 5 ]) ~sectors:4 () in
        let dev = Faulty_disk.to_block_dev fd in
        Block_dev.write dev 1 (blk 'Z');
        let crashed = Block_dev.crash_with dev ~keep_unflushed:max_int in
        (* A stalled write is stuck in the device, not the pending queue:
           even keep-everything crashes lose it. *)
        Faulty_disk.stalled_count fd = 1
        && Faulty_disk.pending_count fd = 0
        && Block_dev.read crashed 1 = blk '\000');
    Vc.prop ~id:"fi/disk/reorder-older-wins" ~category:"fi/disk" (fun () ->
        let run plan =
          let fd = Faulty_disk.create ~plan ~sectors:4 () in
          let dev = Faulty_disk.to_block_dev fd in
          Block_dev.write dev 1 (blk 'A');
          Block_dev.write dev 1 (blk 'B');
          Block_dev.flush dev;
          Bytes.get (Block_dev.read dev 1) 0
        in
        (* Swapping the second write before the first makes the older data
           durable; without the fault the newer write wins. *)
        run (script [ Pass; Reorder ]) = 'A' && run (script []) = 'B');
    Vc.prop ~id:"fi/disk/crash-seeds-sweep" ~category:"fi/disk" (fun () ->
        let mk () =
          let dev = plain_dev 8 in
          for s = 0 to 7 do
            Block_dev.write dev s (blk (Char.chr (Char.code 'a' + s)))
          done;
          dev
        in
        let image seed =
          let c = Block_dev.crash ?seed (mk ()) in
          List.init 8 (fun s -> Bytes.get (Block_dev.read c s) 0)
        in
        let seeds = List.init 8 (fun i -> Some i) in
        let images = List.map image seeds in
        (* Seeds sweep genuinely different survival subsets... *)
        List.length (List.sort_uniq compare images) >= 2
        (* ...each deterministically... *)
        && List.for_all2 (fun s i -> image s = i) seeds images
        (* ...and the unseeded cut is the historical fixed one. *)
        && image None = image None);
    Vc.prop ~id:"fi/disk/crash-with-clamps" ~category:"fi/disk" (fun () ->
        let mk () =
          let fd = Faulty_disk.create ~sectors:4 () in
          let dev = Faulty_disk.to_block_dev fd in
          Block_dev.write dev 1 (blk 'A');
          Block_dev.write dev 2 (blk 'B');
          Block_dev.write dev 3 (blk 'C');
          dev
        in
        let survivors keep =
          let c = Block_dev.crash_with (mk ()) ~keep_unflushed:keep in
          List.length
            (List.filter
               (fun s -> Block_dev.read c s <> blk '\000')
               [ 1; 2; 3 ])
        in
        survivors (-5) = 0 && survivors 0 = 0 && survivors 2 = 2
        && survivors 3 = 3 && survivors 99 = 3);
    Vc.prop ~id:"fi/disk/wal-commit-survives-fault-family" ~category:"fi/disk"
      (fun () ->
        (* WAL commits must survive every stall/duplicate/reorder plan:
           those faults respect flush barriers, and each commit stage is
           barrier-separated.  (Drop and persistent corruption are out of
           any storage contract.) *)
        let rates =
          { drop = 0; duplicate = 120; reorder = 120; corrupt = 0;
            stall = 120; max_stall = 4 }
        in
        List.for_all
          (fun seed ->
            let plan = Fault_plan.seeded ~name:"wal-family" ~seed ~rates () in
            let fd = Faulty_disk.create ~plan ~sectors:64 () in
            let dev = Faulty_disk.to_block_dev fd in
            let w = Wal.create dev ~header_block:0 in
            ignore (Wal.recover w : int);
            let txn = Wal.begin_txn w in
            Wal.txn_write txn 40 (blk 'B');
            Wal.txn_write txn 41 (blk 'C');
            Wal.commit txn;
            let crashed = Block_dev.crash_with dev ~keep_unflushed:max_int in
            ignore (Wal.recover (Wal.create crashed ~header_block:0) : int);
            Block_dev.read crashed 40 = blk 'B'
            && Block_dev.read crashed 41 = blk 'C')
          [ 0; 1; 2; 3; 4; 5 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Crash exploration of WAL transactions                               *)

(* Observe the WAL's target blocks through recovery: the first byte of
   each target block after mounting the crashed device. *)
let wal_view ~header_block ~targets dev =
  let w = Wal.create dev ~header_block in
  ignore (Wal.recover w : int);
  List.map (fun s -> Bytes.to_string (Block_dev.read dev s)) targets

let pp_wal_view ppf v =
  Format.fprintf ppf "[%s]"
    (String.concat ";"
       (List.map
          (fun s -> if s = "" then "?" else Printf.sprintf "%c.." s.[0])
          v))

let wal_config ?(tears = []) ?(seeds = []) ?(explore_recovery = false)
    ~setup_blocks ~txn_writes () =
  let targets = List.map fst setup_blocks in
  {
    Crash_explore.sectors = 64;
    setup =
      (fun dev ->
        List.iter (fun (s, c) -> Block_dev.write dev s (blk c)) setup_blocks;
        (* Initialise the log header so [recover] is a no-op pre-txn. *)
        ignore (Wal.recover (Wal.create dev ~header_block:0) : int));
    mutate =
      (fun dev ->
        let w = Wal.create dev ~header_block:0 in
        let txn = Wal.begin_txn w in
        List.iter (fun (s, c) -> Wal.txn_write txn s (blk c)) txn_writes;
        Wal.commit txn);
    view = wal_view ~header_block:0 ~targets;
    equal = ( = );
    pp = Some pp_wal_view;
    tears;
    crash_seeds = seeds;
    explore_recovery;
  }

let wal_vcs () =
  [
    Vc.make ~id:"fi/wal/atomic-1-record" ~category:"fi/wal" (fun () ->
        Crash_explore.must_census
          {
            writes = 5;
            flushes = 4;
            crash_points = 10;
            torn_points = 20;
            subset_points = 50;
            recovery_points = 0;
          }
          (Crash_explore.explore
             (wal_config ~tears:[ 1; 8; 256; 511 ] ~seeds:[ 0; 1; 2; 3; 4 ]
                ~setup_blocks:[ (40, 'A') ] ~txn_writes:[ (40, 'B') ] ())));
    Vc.make ~id:"fi/wal/atomic-3-records" ~category:"fi/wal" (fun () ->
        Crash_explore.must_census
          {
            writes = 11;
            flushes = 4;
            crash_points = 16;
            torn_points = 22;
            subset_points = 48;
            recovery_points = 0;
          }
          (Crash_explore.explore
             (wal_config ~tears:[ 4; 256 ] ~seeds:[ 1; 2; 3 ]
                ~setup_blocks:[ (40, 'A'); (41, 'B'); (42, 'C') ]
                ~txn_writes:[ (40, 'X'); (41, 'Y'); (42, 'Z') ] ())));
    Vc.make ~id:"fi/wal/atomic-max-records" ~category:"fi/wal" (fun () ->
        let blocks = List.init Wal.max_records (fun i -> 40 + i) in
        Crash_explore.must_census
          {
            writes = 47;
            flushes = 4;
            crash_points = 52;
            torn_points = 0;
            subset_points = 52;
            recovery_points = 0;
          }
          (Crash_explore.explore
             (wal_config ~seeds:[ 1 ]
                ~setup_blocks:(List.map (fun s -> (s, 'O')) blocks)
                ~txn_writes:(List.map (fun s -> (s, 'N')) blocks) ())));
    Vc.make ~id:"fi/wal/overwrite-same-block" ~category:"fi/wal" (fun () ->
        (* Two txn writes to one block: last wins, still atomic. *)
        let last_wins () =
          let dev = plain_dev 64 in
          let w = Wal.create dev ~header_block:0 in
          ignore (Wal.recover w : int);
          let txn = Wal.begin_txn w in
          Wal.txn_write txn 40 (blk 'X');
          Wal.txn_write txn 40 (blk 'Y');
          Wal.commit txn;
          Block_dev.read dev 40 = blk 'Y'
        in
        match
          Crash_explore.must_census
            {
              writes = 5;
              flushes = 4;
              crash_points = 10;
              torn_points = 5;
              subset_points = 20;
              recovery_points = 0;
            }
            (Crash_explore.explore
               (wal_config ~tears:[ 64 ] ~seeds:[ 1; 2 ]
                  ~setup_blocks:[ (40, 'A') ]
                  ~txn_writes:[ (40, 'X'); (40, 'Y') ] ()))
        with
        | Vc.Proved when not (last_wins ()) ->
            Vc.Falsified "block 40 does not hold the txn's last write"
        | outcome -> outcome);
    Vc.make ~id:"fi/wal/empty-txn-noop" ~category:"fi/wal" (fun () ->
        Crash_explore.must_census
          {
            writes = 0;
            flushes = 0;
            crash_points = 1;
            torn_points = 0;
            subset_points = 0;
            recovery_points = 0;
          }
          (Crash_explore.explore
             (wal_config ~setup_blocks:[ (40, 'A') ] ~txn_writes:[] ())));
    Vc.make ~id:"fi/wal/recovery-idempotent-every-boundary" ~category:"fi/wal"
      (fun () ->
        Crash_explore.must_census
          {
            writes = 8;
            flushes = 4;
            crash_points = 13;
            torn_points = 0;
            subset_points = 39;
            recovery_points = 152;
          }
          (Crash_explore.explore
             (wal_config ~seeds:[ 0; 1; 2 ] ~explore_recovery:true
                ~setup_blocks:[ (40, 'A'); (41, 'B') ]
                ~txn_writes:[ (40, 'X'); (41, 'Y') ] ())));
    Vc.make ~id:"fi/wal/crash-point-census" ~category:"fi/wal" (fun () ->
        (* The 3-record commit protocol issues exactly 11 writes (2 per
           record + commit header + 3 installs + header clear) across 4
           flush epochs; the explorer must visit every boundary. *)
        Crash_explore.must_census
          {
            writes = 11;
            flushes = 4;
            crash_points = 16 (* 15 ops + 1 boundary *);
            torn_points = 11 (* one tear per write *);
            subset_points = 32 (* 2 seeds per boundary *);
            recovery_points = 0;
          }
          (Crash_explore.explore
             (wal_config ~tears:[ 256 ] ~seeds:[ 1; 2 ]
                ~setup_blocks:[ (40, 'A'); (41, 'B'); (42, 'C') ]
                ~txn_writes:[ (40, 'X'); (41, 'Y'); (42, 'Z') ] ())));
  ]

(* ------------------------------------------------------------------ *)
(* Crash exploration of filesystem operations                          *)

let fs_vcs () =
  let req = function Ok () -> () | Error e -> failwith (Fs.pp_error Format.str_formatter e; Format.flush_str_formatter ()) in
  [
    Vc.make ~id:"fi/fs/create-atomic" ~category:"fi/fs" (fun () ->
        Crash_explore.must_census
          {
            writes = 11;
            flushes = 4;
            crash_points = 16;
            torn_points = 11;
            subset_points = 32;
            recovery_points = 0;
          }
          (Crash_explore.explore
             (Fs_refinement.crash_config ~tears:[ 256 ] ~seeds:[ 1; 2 ]
                ~setup:(fun fs -> req (Fs.create fs "/a"))
                ~mutate:(fun fs -> req (Fs.create fs "/b"))
                ())));
    Vc.make ~id:"fi/fs/write-atomic" ~category:"fi/fs" (fun () ->
        Crash_explore.must_census
          {
            writes = 11;
            flushes = 4;
            crash_points = 16;
            torn_points = 11;
            subset_points = 32;
            recovery_points = 0;
          }
          (Crash_explore.explore
             (Fs_refinement.crash_config ~tears:[ 100 ] ~seeds:[ 1; 2 ]
                ~setup:(fun fs -> req (Fs.create fs "/a"))
                ~mutate:(fun fs ->
                  match Fs.resolve fs "/a" with
                  | Ok ino ->
                      req (Fs.write_ino fs ~ino ~off:0 (Bytes.of_string "hello, crash"))
                  | Error _ -> failwith "resolve /a")
                ())));
    Vc.make ~id:"fi/fs/rename-atomic" ~category:"fi/fs" (fun () ->
        Crash_explore.must_census
          {
            writes = 14;
            flushes = 4;
            crash_points = 19;
            torn_points = 0;
            subset_points = 38;
            recovery_points = 204;
          }
          (Crash_explore.explore
             (Fs_refinement.crash_config ~seeds:[ 1; 2 ] ~explore_recovery:true
                ~setup:(fun fs ->
                  req (Fs.create fs "/a");
                  req (Fs.mkdir fs "/d"))
                ~mutate:(fun fs -> req (Fs.rename fs ~src:"/a" ~dst:"/d/b"))
                ())));
    Vc.make ~id:"fi/fs/unlink-atomic" ~category:"fi/fs" (fun () ->
        Crash_explore.must_census
          {
            writes = 14;
            flushes = 4;
            crash_points = 19;
            torn_points = 14;
            subset_points = 38;
            recovery_points = 0;
          }
          (Crash_explore.explore
             (Fs_refinement.crash_config ~tears:[ 128 ] ~seeds:[ 1; 2 ]
                ~setup:(fun fs ->
                  req (Fs.create fs "/a");
                  match Fs.resolve fs "/a" with
                  | Ok ino ->
                      req (Fs.write_ino fs ~ino ~off:0 (Bytes.of_string "doomed"))
                  | Error _ -> failwith "resolve /a")
                ~mutate:(fun fs -> req (Fs.unlink fs "/a"))
                ())));
  ]

(* ------------------------------------------------------------------ *)
(* TCP delivery contract under faulty links                            *)

let mk_payload n = Bytes.init n (fun i -> Char.chr ((i * 7 + 3) land 0xff))

let exact ?decode ~plan_ab ~plan_ba ~payload ~rounds () =
  let got, _ =
    Faulty_link.run_transfer ?decode ~plan_ab ~plan_ba ~payload ~rounds ()
  in
  got = Bytes.to_string payload

let family_vc ~id ~rates ~limit ~rounds ~payload_len =
  Vc.prop ~id ~category:"fi/net" (fun () ->
      List.for_all
        (fun seed ->
          exact
            ~plan_ab:(Fault_plan.seeded ~name:(id ^ "/ab") ~seed ~rates ~limit ())
            ~plan_ba:(Fault_plan.seeded ~name:(id ^ "/ba") ~seed ~rates ~limit ())
            ~payload:(mk_payload payload_len) ~rounds ())
        [ 0; 1; 2; 3; 4 ])

let net_vcs () =
  let open Fault_plan in
  let nf = no_faults in
  [
    Vc.prop ~id:"fi/net/no-fault-delivery" ~category:"fi/net" (fun () ->
        exact ~plan_ab:(script []) ~plan_ba:(script [])
          ~payload:(mk_payload 2500) ~rounds:30 ());
    family_vc ~id:"fi/net/drop-family" ~rates:{ nf with drop = 150 } ~limit:8
      ~rounds:90 ~payload_len:2200;
    family_vc ~id:"fi/net/dup-reorder-family"
      ~rates:{ nf with duplicate = 200; reorder = 200 } ~limit:12 ~rounds:60
      ~payload_len:2200;
    family_vc ~id:"fi/net/corrupt-family" ~rates:{ nf with corrupt = 250 }
      ~limit:8 ~rounds:90 ~payload_len:2200;
    family_vc ~id:"fi/net/stall-family"
      ~rates:{ nf with stall = 250; max_stall = 4 } ~limit:10 ~rounds:90
      ~payload_len:2200;
    Vc.prop ~id:"fi/net/exhaustive-small-plans" ~category:"fi/net" (fun () ->
        (* Every plan over {pass,drop,dup}^4 applied to the client->server
           direction: 81 adversaries, one delivery contract. *)
        List.for_all
          (fun plan ->
            exact ~plan_ab:(script plan) ~plan_ba:(script [])
              ~payload:(mk_payload 900) ~rounds:45 ())
          (enumerate ~sites:4 ~choices:[ Pass; Drop; Duplicate ]));
    Vc.prop ~id:"fi/net/handshake-under-loss" ~category:"fi/net" (fun () ->
        (* Lose the SYN and the SYN-ACK: retransmission completes the
           handshake and the stream still arrives exactly. *)
        exact ~plan_ab:(script [ Drop ]) ~plan_ba:(script [ Drop ])
          ~payload:(mk_payload 1500) ~rounds:60 ());
    Vc.prop ~id:"fi/net/corrupt-burst-recovered" ~category:"fi/net" (fun () ->
        (* Corrupt the first data segment twice in a row: the checksum
           rejects both copies and go-back-N repairs the stream. *)
        exact
          ~plan_ab:
            (script
               [ Pass; Pass; Corrupt { pos = 30; bits = 0x10 };
                 Corrupt { pos = 40; bits = 0x80 } ])
          ~plan_ba:(script []) ~payload:(mk_payload 600) ~rounds:45 ());
    Vc.prop ~id:"fi/net/stack-e2e-faulty-link" ~category:"fi/net" (fun () ->
        (* Whole stacks (ARP + IP + TCP) over the NIC-level faulty wire. *)
        let module Nic = Bi_hw.Device.Nic in
        let module Stack = Bi_net.Stack in
        List.for_all
          (fun seed ->
            let rates =
              { no_faults with drop = 120; duplicate = 80; stall = 80;
                max_stall = 3 }
            in
            let a_nic = Nic.create ~mac:"\x02\x00\x00\x00\x00\x0a" () in
            let b_nic = Nic.create ~mac:"\x02\x00\x00\x00\x00\x0b" () in
            let sa = Stack.create ~nic:a_nic ~ip:0x0a000001l in
            let sb = Stack.create ~nic:b_nic ~ip:0x0a000002l in
            Stack.tcp_listen sb 80;
            let l =
              Faulty_link.link
                ~plan_ab:(Fault_plan.seeded ~name:"stack/ab" ~seed ~rates ~limit:6 ())
                ~plan_ba:(Fault_plan.seeded ~name:"stack/ba" ~seed ~rates ~limit:6 ())
                a_nic b_nic
            in
            let cid = Stack.tcp_connect sa ~dst_ip:0x0a000002l ~dst_port:80 in
            let payload = mk_payload 1800 in
            Stack.tcp_send sa cid payload;
            let received = Buffer.create 1800 in
            let accepted = ref None in
            for _ = 1 to 120 do
              ignore (Faulty_link.step_link l : int);
              Stack.poll sa;
              Stack.poll sb;
              Stack.tick sa;
              Stack.tick sb;
              (match !accepted with
              | None -> accepted := Stack.tcp_accept sb 80
              | Some _ -> ());
              match !accepted with
              | Some c -> Buffer.add_bytes received (Stack.tcp_recv sb c)
              | None -> ()
            done;
            Buffer.contents received = Bytes.to_string payload)
          [ 0; 1; 2 ]);
  ]

(* ------------------------------------------------------------------ *)
(* NR linearizability under stalled replicas / delayed combiners       *)

module Counter = Bi_nr.Counter

module Nr_counter = Nr.Make (Counter)

(* Plan-driven stalls: the shared plan is consulted under a mutex (hooks
   run on every domain); a Stall n decision burns n*200 relaxation spins. *)
let plan_stall plan =
  let m = Mutex.create () in
  fun () ->
    Mutex.lock m;
    let d = Fault_plan.next plan in
    Mutex.unlock m;
    match d with
    | Fault_plan.Stall n -> for _ = 1 to n * 200 do Domain.cpu_relax () done
    | _ -> ()

let stalled_combiner_hooks plan =
  let stall = plan_stall plan in
  { Nr.on_combine = (fun ~replica:_ -> stall ()); on_apply = (fun ~replica:_ ~index:_ -> ()) }

let delayed_apply_hooks plan =
  let stall = plan_stall plan in
  { Nr.on_combine = (fun ~replica:_ -> ()); on_apply = (fun ~replica:_ ~index:_ -> stall ()) }

let stall_rates = { Fault_plan.no_faults with stall = 400; max_stall = 3 }

let lin_under_hooks ~id mk_hooks seed =
  Vc.prop ~id ~category:"fi/nr" (fun () ->
      let plan = Fault_plan.seeded ~name:id ~seed ~rates:stall_rates () in
      let nr =
        Nr_counter.create ~replicas:2 ~threads_per_replica:2
          ~hooks:(mk_hooks plan) ()
      in
      let history =
        Counter.two_domain_history ~calls:30
          ~op:(fun i -> if i mod 5 = 4 then Counter.Read else Counter.Incr)
          (Nr_counter.execute nr)
      in
      Counter.Lin.check ~init:0 history)

module Kv = struct
  type t = (int, int) Hashtbl.t
  type op = Put of int * int | Get of int | Delete of int
  type ret = Unit | Found of int option

  let create () = Hashtbl.create 16

  let apply t = function
    | Put (k, v) ->
        Hashtbl.replace t k v;
        Unit
    | Get k -> Found (Hashtbl.find_opt t k)
    | Delete k ->
        Hashtbl.remove t k;
        Unit

  include Bi_nr.Seq_ds.Batch_of_apply (struct
    type nonrec t = t
    type nonrec op = op
    type nonrec ret = ret

    let apply = apply
  end)

  let is_read_only = function Get _ -> true | Put _ | Delete _ -> false
end

module Nr_kv = Nr.Make (Kv)

let nr_vcs () =
  [
    Vc.prop ~id:"fi/nr/hooks-fire" ~category:"fi/nr" (fun () ->
        let combines = Atomic.make 0 and applies = Atomic.make 0 in
        let hooks =
          {
            Nr.on_combine = (fun ~replica:_ -> Atomic.incr combines);
            on_apply = (fun ~replica:_ ~index:_ -> Atomic.incr applies);
          }
        in
        let nr = Nr_counter.create ~replicas:1 ~threads_per_replica:1 ~hooks () in
        for _ = 1 to 5 do
          ignore (Nr_counter.execute nr ~thread:0 Counter.Incr : int)
        done;
        Atomic.get combines >= 1 && Atomic.get applies >= 5);
    lin_under_hooks ~id:"fi/nr/linearizable-stalled-combiner/00"
      stalled_combiner_hooks 0;
    lin_under_hooks ~id:"fi/nr/linearizable-stalled-combiner/01"
      stalled_combiner_hooks 1;
    lin_under_hooks ~id:"fi/nr/linearizable-delayed-apply/00"
      delayed_apply_hooks 0;
    Vc.prop ~id:"fi/nr/equivalence-under-stalls" ~category:"fi/nr" (fun () ->
        (* Stalls change timing, never results: single-threaded NR under a
           stalling plan still agrees with the plain structure. *)
        let plan =
          Fault_plan.seeded ~name:"fi/nr/equiv" ~seed:0 ~rates:stall_rates ()
        in
        let nr =
          Nr_kv.create ~replicas:2 ~threads_per_replica:2
            ~hooks:(stalled_combiner_hooks plan) ()
        in
        let plain = Kv.create () in
        let g = Gen.of_string "fi/nr/equivalence-under-stalls" in
        let ok = ref true in
        for i = 0 to 149 do
          let op =
            match Gen.int g 5 with
            | 0 | 1 -> Kv.Put (Gen.int g 16, Gen.int g 1000)
            | 2 | 3 -> Kv.Get (Gen.int g 16)
            | _ -> Kv.Delete (Gen.int g 16)
          in
          if Nr_kv.execute nr ~thread:(i mod 4) op <> Kv.apply plain op then
            ok := false
        done;
        !ok);
  ]

(* ------------------------------------------------------------------ *)
(* Serde fuzzing: corrupted bytes decode to a typed error, total        *)

let serde_total (type a) (codec : a Serde.t) b =
  match Serde.decode codec b with Some _ | None -> true

let serde_vcs () =
  [
    Vc.prop ~id:"fi/serde/fuzz-scalars" ~category:"fi/serde"
      (Vc.all
         [
           Vc.forall_sampled ~id:"fi/serde/fuzz-scalars/u16" ~n:400
             (fun g ->
               Fault_plan.corrupt_bytes g (Serde.encode Serde.u16 (Gen.int g 65536)))
             (serde_total Serde.u16);
           Vc.forall_sampled ~id:"fi/serde/fuzz-scalars/u32" ~n:400
             (fun g ->
               Fault_plan.corrupt_bytes g
                 (Serde.encode Serde.u32 (Int64.to_int32 (Gen.next64 g))))
             (serde_total Serde.u32);
           Vc.forall_sampled ~id:"fi/serde/fuzz-scalars/varint" ~n:400
             (fun g ->
               Fault_plan.corrupt_bytes g
                 (Serde.encode Serde.varint (Gen.int g 1_000_000_000)))
             (serde_total Serde.varint);
           Vc.forall_sampled ~id:"fi/serde/fuzz-scalars/u64" ~n:400
             (fun g ->
               Fault_plan.corrupt_bytes g (Serde.encode Serde.u64 (Gen.next64 g)))
             (serde_total Serde.u64);
         ]);
    Vc.prop ~id:"fi/serde/fuzz-composites" ~category:"fi/serde"
      (Vc.all
         [
           (let c = Serde.string in
            Vc.forall_sampled ~id:"fi/serde/fuzz-composites/string" ~n:300
              (fun g ->
                let s = String.init (Gen.int g 20) (fun _ -> Char.chr (Gen.int g 256)) in
                Fault_plan.corrupt_bytes g (Serde.encode c s))
              (serde_total c));
           (let c = Serde.list Serde.varint in
            Vc.forall_sampled ~id:"fi/serde/fuzz-composites/list" ~n:300
              (fun g ->
                let l = List.init (Gen.int g 8) (fun _ -> Gen.int g 10_000) in
                Fault_plan.corrupt_bytes g (Serde.encode c l))
              (serde_total c));
           (let c = Serde.pair Serde.u16 Serde.string in
            Vc.forall_sampled ~id:"fi/serde/fuzz-composites/pair" ~n:300
              (fun g ->
                Fault_plan.corrupt_bytes g
                  (Serde.encode c (Gen.int g 65536, "payload")))
              (serde_total c));
           (let c = Serde.option Serde.u32 in
            Vc.forall_sampled ~id:"fi/serde/fuzz-composites/option" ~n:300
              (fun g ->
                let v = if Gen.bool g then Some (Int64.to_int32 (Gen.next64 g)) else None in
                Fault_plan.corrupt_bytes g (Serde.encode c v))
              (serde_total c));
         ]);
    Vc.prop ~id:"fi/serde/fuzz-random-bytes" ~category:"fi/serde"
      (Vc.forall_sampled ~id:"fi/serde/fuzz-random-bytes" ~n:600
         (fun g ->
           Bytes.init (Gen.int g 40) (fun _ -> Char.chr (Gen.int g 256)))
         (fun b ->
           serde_total Serde.varint b
           && serde_total Serde.string b
           && serde_total (Serde.list Serde.u16) b
           && serde_total (Serde.option (Serde.pair Serde.varint Serde.bool)) b));
    Vc.prop ~id:"fi/serde/prefixes-reject" ~category:"fi/serde" (fun () ->
        (* Every strict prefix of a valid encoding is a truncation: the
           decoder must return None, never raise. *)
        let strict_prefixes b =
          List.init (Bytes.length b) (fun n -> Bytes.sub b 0 n)
        in
        let check (type a) (c : a Serde.t) (v : a) =
          List.for_all
            (fun p -> Serde.decode c p = None)
            (strict_prefixes (Serde.encode c v))
        in
        check Serde.varint 300
        && check Serde.string "hello, world"
        && check (Serde.list Serde.u32) [ 1l; 2l; 3l ]
        && check (Serde.pair Serde.varint Serde.string) (77, "x")
        && check (Serde.option Serde.u64) (Some 42L));
  ]

(* ------------------------------------------------------------------ *)
(* Mutation self-checks: seeded bugs the fault machinery must catch     *)

let wal_magic = 0x57414C31l

let raw_header n =
  let b = blk '\000' in
  Bytes.set_int32_le b 0 wal_magic;
  Bytes.set_int32_le b 4 (Int32.of_int n);
  b

let raw_meta target =
  let b = blk '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int target);
  b

(* The m1 mutant: write (and flush) the commit header BEFORE the records
   it names — the classic logging-order bug. *)
let buggy_commit_header_first dev ~header_block records =
  let n = List.length records in
  Block_dev.write dev header_block (raw_header n);
  Block_dev.flush dev;
  List.iteri
    (fun i (target, data) ->
      Block_dev.write dev (header_block + 1 + (2 * i)) (raw_meta target);
      Block_dev.write dev (header_block + 2 + (2 * i)) data)
    records;
  Block_dev.flush dev;
  List.iter (fun (target, data) -> Block_dev.write dev target data) records;
  Block_dev.flush dev;
  Block_dev.write dev header_block (raw_header 0);
  Block_dev.flush dev

(* The m5 mutant: records and commit header share one flush epoch, so a
   crash subset can keep the header while losing records. *)
let buggy_commit_no_record_flush dev ~header_block records =
  let n = List.length records in
  List.iteri
    (fun i (target, data) ->
      Block_dev.write dev (header_block + 1 + (2 * i)) (raw_meta target);
      Block_dev.write dev (header_block + 2 + (2 * i)) data)
    records;
  Block_dev.write dev header_block (raw_header n);
  Block_dev.flush dev;
  List.iter (fun (target, data) -> Block_dev.write dev target data) records;
  Block_dev.flush dev;
  Block_dev.write dev header_block (raw_header 0);
  Block_dev.flush dev

(* The m2 mutant: recovery installs and clears the commit header in ONE
   flush epoch — a crash subset can clear the header while losing part of
   the install, stranding a half-applied transaction forever. *)
let buggy_recover_no_install_flush dev ~header_block =
  let hdr = Block_dev.read dev header_block in
  if Bytes.get_int32_le hdr 0 = wal_magic then begin
    let n = Int32.to_int (Bytes.get_int32_le hdr 4) in
    if n > 0 && n <= Wal.max_records then begin
      for i = 0 to n - 1 do
        let meta = Block_dev.read dev (header_block + 1 + (2 * i)) in
        let target = Int32.to_int (Bytes.get_int32_le meta 0) in
        let data = Block_dev.read dev (header_block + 2 + (2 * i)) in
        Block_dev.write dev target data
      done;
      Block_dev.write dev header_block (raw_header 0);
      Block_dev.flush dev
    end
  end
  else begin
    Block_dev.write dev header_block (raw_header 0);
    Block_dev.flush dev
  end

let seeds16 = List.init 16 (fun i -> i)

(* Buggy commits get a sentinel at block 0: a lost meta record makes the
   recovered target default to 0, which zeroes the sentinel — observable. *)
let buggy_commit_config commit =
  {
    Crash_explore.sectors = 64;
    setup =
      (fun dev ->
        Block_dev.write dev 0 (blk 'S');
        Block_dev.write dev 40 (blk 'A');
        Block_dev.write dev 5 (raw_header 0));
    mutate = (fun dev -> commit dev ~header_block:5 [ (40, blk 'B') ]);
    view = wal_view ~header_block:5 ~targets:[ 0; 40 ];
    equal = ( = );
    pp = Some pp_wal_view;
    tears = [];
    crash_seeds = seeds16;
    explore_recovery = false;
  }

let vc_catches ~id check =
  Vc.make ~id ~category:"fi/mutation" (fun () ->
      match check () with
      | Error (_ : string) -> Vc.Proved (* the bug was falsified, as it must be *)
      | Ok _ -> Vc.Falsified "seeded bug went undetected")

let decode_nochecksum ~src_ip:_ ~dst_ip:_ b =
  if Bytes.length b < 20 then None
  else begin
    let u16 o = (Char.code (Bytes.get b o) lsl 8) lor Char.code (Bytes.get b (o + 1)) in
    let u32 o =
      Int32.logor
        (Int32.shift_left (Int32.of_int (u16 o)) 16)
        (Int32.of_int (u16 (o + 2)))
    in
    let off = Char.code (Bytes.get b 12) lsr 4 * 4 in
    if off < 20 || off > Bytes.length b then None
    else
      let fb = Char.code (Bytes.get b 13) in
      Some
        {
          Tcp.src_port = u16 0;
          dst_port = u16 2;
          seq = u32 4;
          ack_n = u32 8;
          flags =
            {
              Tcp.fin = fb land 0x01 <> 0;
              syn = fb land 0x02 <> 0;
              rst = fb land 0x04 <> 0;
              psh = fb land 0x08 <> 0;
              ack = fb land 0x10 <> 0;
            };
          window = u16 14;
          payload = Bytes.sub b off (Bytes.length b - off);
        }
  end

(* The plan under which a checksum-skipping TCP corrupts the stream. *)
let m4_fails plan_decisions =
  let got, _ =
    Faulty_link.run_transfer ~decode:decode_nochecksum
      ~plan_ab:(Fault_plan.script plan_decisions)
      ~plan_ba:(Fault_plan.script []) ~payload:(mk_payload 600) ~rounds:45 ()
  in
  got <> Bytes.to_string (mk_payload 600)

let mutation_vcs () =
  [
    vc_catches ~id:"fi/mutation/wal-header-before-records" (fun () ->
        Crash_explore.explore (buggy_commit_config buggy_commit_header_first));
    vc_catches ~id:"fi/mutation/wal-no-flush-before-commit-point" (fun () ->
        Crash_explore.explore (buggy_commit_config buggy_commit_no_record_flush));
    vc_catches ~id:"fi/mutation/wal-recovery-missing-flush" (fun () ->
        Crash_explore.explore
          {
            Crash_explore.sectors = 64;
            setup =
              (fun dev ->
                Block_dev.write dev 40 (blk 'A');
                Block_dev.write dev 41 (blk 'B');
                Block_dev.write dev 0 (raw_header 0));
            mutate =
              (fun dev ->
                (* The COMMIT is correct; the bug is in recovery. *)
                let w = Wal.create dev ~header_block:0 in
                let txn = Wal.begin_txn w in
                Wal.txn_write txn 40 (blk 'X');
                Wal.txn_write txn 41 (blk 'Y');
                Wal.commit txn);
            view =
              (fun dev ->
                buggy_recover_no_install_flush dev ~header_block:0;
                List.map
                  (fun s -> Bytes.to_string (Block_dev.read dev s))
                  [ 40; 41 ]);
            equal = ( = );
            pp = Some pp_wal_view;
            tears = [];
            crash_seeds = seeds16;
            explore_recovery = true;
          });
    Vc.prop ~id:"fi/mutation/disk-flush-without-barrier" ~category:"fi/mutation"
      (fun () ->
        (* The mutant is the real device behind a flush that is no
           barrier: a stalled write stays in flight across it, so data
           "flushed" by the application is lost on crash. *)
        let run barrier =
          let fd =
            Faulty_disk.create ~plan:(Fault_plan.script [ Fault_plan.Stall 10 ])
              ~sectors:4 ()
          in
          let dev =
            if barrier then Faulty_disk.to_block_dev fd
            else
              Block_dev.make ~blocks:4 ~read:(Faulty_disk.read fd)
                ~write:(Faulty_disk.write fd) ~flush:ignore
                ~crash:(fun seed -> Faulty_disk.crash ?seed fd)
                ~crash_with:(fun ~keep_unflushed ->
                  Faulty_disk.crash_with fd ~keep_unflushed)
                ~io_count:(fun () -> Faulty_disk.io_count fd)
          in
          Block_dev.write dev 1 (blk 'Z');
          Block_dev.flush dev;
          let crashed = Block_dev.crash_with dev ~keep_unflushed:max_int in
          Bytes.get (Block_dev.read crashed 1) 0
        in
        run true = 'Z' && run false = '\000');
    Vc.prop ~id:"fi/mutation/tcp-accepts-corrupted-segment"
      ~category:"fi/mutation" (fun () ->
        let open Fault_plan in
        let corrupting =
          [ Duplicate; Pass; Corrupt { pos = 30; bits = 0x10 }; Drop; Pass ]
        in
        (* With the real checksum-validating decode the same plan is
           harmless; skipping validation corrupts the stream... *)
        let real_decode_survives =
          exact ~plan_ab:(script corrupting) ~plan_ba:(script [])
            ~payload:(mk_payload 600) ~rounds:45 ()
        in
        (* ...and the failing plan shrinks to its load-bearing Corrupt,
           deterministically, and still replays as a failure. *)
        let shrunk = shrink ~fails:m4_fails corrupting in
        real_decode_survives
        && m4_fails corrupting
        && shrunk = [ Pass; Pass; Corrupt { pos = 30; bits = 0x10 } ]
        && m4_fails shrunk
        && shrink ~fails:m4_fails corrupting = shrunk);
  ]

let vcs () =
  plan_vcs () @ disk_vcs () @ wal_vcs () @ fs_vcs () @ net_vcs () @ nr_vcs ()
  @ serde_vcs () @ mutation_vcs ()
