(* Fault-injection subsystem tests: plan determinism/replay/shrinking,
   the faulty disk and link models, crash-point exploration (including a
   positive control showing the explorer passes a *correct* commit under
   the exact config that catches the seeded mutants), and the fi VC
   suite itself. *)

module Fault_plan = Bi_fault.Fault_plan
module Faulty_disk = Bi_fault.Faulty_disk
module Faulty_link = Bi_fault.Faulty_link
module Crash_explore = Bi_fs.Crash_explore
module Fi_check = Bi_fault.Fi_check
module Block_dev = Bi_fs.Block_dev
module Disk = Bi_hw.Device.Disk
module Wal = Bi_fs.Wal

let check = Alcotest.check
let bs = Block_dev.block_size
let blk c = Bytes.make bs c

(* ------------------------------------------------------------------ *)
(* Fault plans *)

let decisions plan n = List.init n (fun _ -> Fault_plan.next ~len:32 plan)

let test_plan_seeded_deterministic () =
  let mk () = Fault_plan.seeded ~name:"t" ~seed:1 () in
  check Alcotest.bool "equal traces" true
    (decisions (mk ()) 64 = decisions (mk ()) 64)

let test_plan_replay () =
  let p =
    Fault_plan.seeded ~name:"t/replay" ~seed:9
      ~rates:{ Fault_plan.default_rates with drop = 200 }
      ()
  in
  let orig = decisions p 32 in
  check Alcotest.bool "replay_of reproduces the trace" true
    (decisions (Fault_plan.replay_of p) 32 = orig)

let test_plan_limit () =
  let p =
    Fault_plan.seeded ~name:"t/limit" ~seed:0
      ~rates:{ Fault_plan.no_faults with drop = 500 }
      ~limit:3 ()
  in
  ignore (decisions p 200);
  check Alcotest.int "fault budget respected" 3 (Fault_plan.faults p)

let test_plan_shrink () =
  let open Fault_plan in
  (* Fails iff a Drop survives anywhere. *)
  let fails p = List.mem Drop p in
  let s = shrink ~fails [ Duplicate; Drop; Stall 2; Drop ] in
  check Alcotest.bool "shrunk plan still fails" true (fails s);
  check Alcotest.int "only load-bearing faults remain" 1
    (List.length (List.filter (( <> ) Pass) s))

let test_plan_enumerate () =
  let open Fault_plan in
  let plans = enumerate ~sites:2 ~choices:[ Pass; Drop ] in
  check Alcotest.int "2^2 plans" 4 (List.length plans);
  check Alcotest.int "all distinct" 4
    (List.length (List.sort_uniq compare plans))

(* ------------------------------------------------------------------ *)
(* Faulty disk *)

let test_disk_transparent_without_faults () =
  let fd = Faulty_disk.create ~sectors:8 () in
  let dev = Faulty_disk.to_block_dev fd in
  Block_dev.write dev 3 (blk 'x');
  check Alcotest.bool "read-own-write" true (Block_dev.read dev 3 = blk 'x');
  Block_dev.flush dev;
  let crashed = Block_dev.crash_with dev ~keep_unflushed:0 in
  check Alcotest.bool "flushed data survives" true
    (Block_dev.read crashed 3 = blk 'x')

let test_disk_stall_respects_barrier () =
  let fd =
    Faulty_disk.create
      ~plan:(Fault_plan.script [ Fault_plan.Stall 4 ])
      ~sectors:4 ()
  in
  let dev = Faulty_disk.to_block_dev fd in
  Block_dev.write dev 1 (blk 'z');
  check Alcotest.int "write is stalled" 1 (Faulty_disk.stalled_count fd);
  Block_dev.flush dev;
  check Alcotest.int "barrier drains the stall" 0 (Faulty_disk.stalled_count fd);
  check Alcotest.bool "durable after barrier" true
    (Block_dev.read (Block_dev.crash_with dev ~keep_unflushed:0) 1 = blk 'z')

(* ------------------------------------------------------------------ *)
(* Crash exploration *)

(* [n] home blocks from 40 on, 'O' before and 'N' after one transaction;
   failures render states as [<state>]. *)
let wal_txn ?tears ?seeds ?explore_recovery n =
  let targets = List.init n (fun i -> 40 + i) in
  {
    (Fi_check.wal_config ?tears ?seeds ?explore_recovery
       ~setup_blocks:(List.map (fun s -> (s, 'O')) targets)
       ~txn_writes:(List.map (fun s -> (s, 'N')) targets)
       ())
    with
    Crash_explore.pp = None;
  }

let test_explore_wal_commit_safe () =
  let cfg =
    Fi_check.wal_config ~tears:[ 7; 300 ] ~seeds:[ 0; 1 ] ~explore_recovery:true
      ~setup_blocks:[ (40, 'A') ] ~txn_writes:[ (40, 'B') ] ()
  in
  match Crash_explore.explore cfg with
  | Ok s ->
      (* 1-record commit: meta + data + header + install + header-clear
         writes across 4 flush epochs. *)
      check Alcotest.int "writes journaled" 5 s.Crash_explore.writes;
      check Alcotest.int "flushes journaled" 4 s.Crash_explore.flushes;
      check Alcotest.int "every boundary visited" 10 s.Crash_explore.crash_points;
      check Alcotest.bool "recovery crash points explored" true
        (s.Crash_explore.recovery_points > 0)
  | Error e -> Alcotest.failf "correct commit rejected: %s" e

(* Positive control for the mutation self-checks: raw unlogged writes are
   NOT atomic, and the explorer must say so. *)
let test_explore_catches_unlogged_writes () =
  let cfg =
    {
      (wal_txn ~tears:[ 7; 300 ] ~seeds:[ 0; 1 ] 1) with
      Crash_explore.setup =
        (fun dev ->
          Block_dev.write dev 40 (blk 'A');
          Block_dev.write dev 41 (blk 'A'));
      mutate =
        (fun dev ->
          Block_dev.write dev 40 (blk 'B');
          Block_dev.write dev 41 (blk 'C');
          Block_dev.flush dev);
      view =
        (fun dev ->
          List.map (fun s -> Bytes.to_string (Block_dev.read dev s)) [ 40; 41 ]);
    }
  in
  match Crash_explore.explore cfg with
  | Ok _ -> Alcotest.fail "unlogged multi-block write passed as atomic"
  | Error _ -> ()

(* Reference oracle: the replay-from-zero explorer the sweep replaced.
   Every crash point reruns [setup] on a fresh disk, replays the op prefix
   from index 0 and views the crashed device, even when an identical state
   was already checked.  [on_check] sees each crashed device first. *)
let oracle_explore ?(on_check = ignore) (cfg : 'v Crash_explore.config) =
  let open Crash_explore in
  let fresh_base () =
    let dev = Block_dev.of_disk (Disk.create ~sectors:cfg.sectors ()) in
    cfg.setup dev;
    Block_dev.flush dev;
    dev
  in
  let replay dev =
    List.iter (function
      | W (s, b) -> Block_dev.write dev s b
      | F -> Block_dev.flush dev)
  in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let crash_all dev = Block_dev.crash_with dev ~keep_unflushed:max_int in
  let journal, get_ops = record (fresh_base ()) in
  cfg.mutate journal;
  let ops = get_ops () in
  let nops = List.length ops in
  let writes = List.length (List.filter (function W _ -> true | F -> false) ops) in
  let pre = cfg.view (crash_all (fresh_base ())) in
  let post =
    let dev = fresh_base () in
    replay dev ops;
    cfg.view (crash_all dev)
  in
  let stats =
    ref
      { crash_points = 0; torn_points = 0; subset_points = 0;
        recovery_points = 0; writes; flushes = nops - writes }
  in
  let failure = ref None in
  let pp_v ppf v =
    match cfg.pp with Some pp -> pp ppf v | None -> Format.fprintf ppf "<state>"
  in
  let check where crashed =
    on_check crashed;
    let v = cfg.view crashed in
    if not (cfg.equal v pre || cfg.equal v post) then
      failure :=
        Some
          (Format.asprintf "%s: state %a is neither pre %a nor post %a" where
             pp_v v pp_v pre pp_v post)
    else
      let v2 = cfg.view crashed in
      if not (cfg.equal v v2) then
        failure :=
          Some
            (Format.asprintf "%s: recovery not idempotent (%a then %a)" where
               pp_v v pp_v v2)
  in
  let prefix_dev i =
    let dev = fresh_base () in
    replay dev (take i ops);
    dev
  in
  let live () = !failure = None in
  for i = 0 to nops do
    if live () then begin
      check (Printf.sprintf "prefix %d/%d" i nops) (crash_all (prefix_dev i));
      stats := { !stats with crash_points = !stats.crash_points + 1 };
      List.iter
        (fun seed ->
          if live () then begin
            check
              (Printf.sprintf "prefix %d/%d subset seed %d" i nops seed)
              (Block_dev.crash ~seed (prefix_dev i));
            stats := { !stats with subset_points = !stats.subset_points + 1 }
          end)
        cfg.crash_seeds
    end
  done;
  List.iteri
    (fun idx op ->
      match op with
      | F -> ()
      | W (s, b) ->
          List.iter
            (fun tear ->
              if live () && tear > 0 && tear < bs then begin
                let dev = prefix_dev idx in
                let torn = Block_dev.read dev s in
                Bytes.blit b 0 torn 0 tear;
                Block_dev.write dev s torn;
                check
                  (Printf.sprintf "torn write %d (op %d, %d bytes)" s idx tear)
                  (crash_all dev);
                stats := { !stats with torn_points = !stats.torn_points + 1 }
              end)
            cfg.tears)
    ops;
  if cfg.explore_recovery then
    for i = 0 to nops do
      if live () then begin
        let rec_journal, rec_ops = record (crash_all (prefix_dev i)) in
        ignore (cfg.view rec_journal);
        let rops = rec_ops () in
        let nrops = List.length rops in
        for j = 0 to nrops do
          let at seed =
            if live () then begin
              let dev = crash_all (prefix_dev i) in
              replay dev (take j rops);
              (match seed with
              | None ->
                  check
                    (Printf.sprintf "recovery prefix %d/%d after crash %d" j
                       nrops i)
                    (crash_all dev)
              | Some seed ->
                  check
                    (Printf.sprintf
                       "recovery prefix %d/%d after crash %d, seed %d" j nrops
                       i seed)
                    (Block_dev.crash ~seed dev));
              stats :=
                { !stats with recovery_points = !stats.recovery_points + 1 }
            end
          in
          at None;
          List.iter (fun seed -> at (Some seed)) cfg.crash_seeds
        done
      end
    done;
  match !failure with Some msg -> Error msg | None -> Ok !stats

(* Raw WAL blocks, for the seeded-bug configs below. *)
let raw_header n =
  let b = blk '\000' in
  Bytes.set_int32_le b 0 0x57414C31l;
  Bytes.set_int32_le b 4 (Int32.of_int n);
  b

let raw_meta target =
  let b = blk '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int target);
  b

(* Commit header flushed before the record it names. *)
let header_before_records =
  {
    (wal_txn 1) with
    Crash_explore.setup =
      (fun dev ->
        Block_dev.write dev 0 (blk 'S');
        Block_dev.write dev 40 (blk 'A');
        Block_dev.write dev 5 (raw_header 0));
    mutate =
      (fun dev ->
        List.iter
          (fun (s, b) ->
            Block_dev.write dev s b;
            Block_dev.flush dev)
          [ (5, raw_header 1); (6, raw_meta 40); (7, blk 'B'); (40, blk 'B');
            (5, raw_header 0) ]);
    view =
      (fun dev ->
        ignore (Wal.recover (Wal.create dev ~header_block:5) : int);
        List.map (fun s -> Bytes.to_string (Block_dev.read dev s)) [ 0; 40 ]);
    crash_seeds = List.init 16 Fun.id;
  }

(* A correct commit, but recovery installs and clears the header in one
   flush epoch. *)
let recovery_missing_flush =
  let buggy_recover dev =
    let hdr = Block_dev.read dev 0 in
    let n = Int32.to_int (Bytes.get_int32_le hdr 4) in
    if Bytes.get_int32_le hdr 0 = 0x57414C31l && n > 0 then
      for i = 0 to n - 1 do
        let meta = Block_dev.read dev (1 + (2 * i)) in
        Block_dev.write dev
          (Int32.to_int (Bytes.get_int32_le meta 0))
          (Block_dev.read dev (2 + (2 * i)))
      done;
    Block_dev.write dev 0 (raw_header 0);
    Block_dev.flush dev
  in
  {
    (wal_txn ~explore_recovery:true 2) with
    Crash_explore.view =
      (fun dev ->
        buggy_recover dev;
        List.map (fun s -> Bytes.to_string (Block_dev.read dev s)) [ 40; 41 ]);
    crash_seeds = List.init 16 Fun.id;
  }

let fs_rename =
  let req = function Ok () -> () | Error _ -> failwith "fs op" in
  Bi_fs.Fs_refinement.crash_config ~seeds:[ 1; 2 ] ~explore_recovery:true
    ~setup:(fun fs ->
      req (Bi_fs.Fs.create fs "/a");
      req (Bi_fs.Fs.mkdir fs "/d"))
    ~mutate:(fun fs -> req (Bi_fs.Fs.rename fs ~src:"/a" ~dst:"/d/b"))
    ()

(* Crash-point labels, pinned: the first failing point is named the same
   way whether it is a plain prefix, a seeded subset, a torn write or a
   crash during recovery. *)
let test_explore_failure_labels () =
  let pp_strings =
    Format.(
      pp_print_list
        ~pp_sep:(fun ppf () -> pp_print_char ppf ',')
        pp_print_string)
  in
  let first_error cfg =
    match Crash_explore.explore cfg with
    | Ok _ -> Alcotest.fail "the config must fail"
    | Error e -> e
  in
  let views = ref 0 in
  let never_pre_or_post =
    {
      (wal_txn 1) with
      Crash_explore.view =
        (fun _ ->
          incr views;
          [ string_of_int !views ]);
      pp = Some pp_strings;
    }
  in
  check Alcotest.string "prefix"
    "prefix 0/9: state 3 is neither pre 1 nor post 2"
    (first_error never_pre_or_post);
  (* The commit mark and the data it names share a flush epoch: only a
     subset that keeps the mark and drops the data shows it. *)
  let mark_without_barrier =
    {
      (wal_txn 1) with
      Crash_explore.setup = (fun dev -> Block_dev.write dev 40 (blk 'A'));
      mutate =
        (fun dev ->
          Block_dev.write dev 40 (blk 'B');
          Block_dev.write dev 41 (blk 'C');
          Block_dev.flush dev);
      view =
        (fun dev ->
          if Block_dev.read dev 41 = blk 'C' then
            [ "C"; Bytes.sub_string (Block_dev.read dev 40) 0 1 ]
          else [ "none" ]);
      pp = Some pp_strings;
      crash_seeds = List.init 16 Fun.id;
      explore_recovery = false;
    }
  in
  check Alcotest.string "subset"
    "prefix 2/3 subset seed 0: state C,A is neither pre none nor post C,B"
    (first_error mark_without_barrier);
  (* A one-block update taken as atomic: a torn write splits it. *)
  let torn_block =
    {
      mark_without_barrier with
      mutate =
        (fun dev ->
          Block_dev.write dev 40 (blk 'B');
          Block_dev.flush dev);
      view =
        (fun dev ->
          let b = Block_dev.read dev 40 in
          [ Bytes.sub_string b 0 1; Bytes.sub_string b 511 1 ]);
      tears = [ 100 ];
      crash_seeds = [];
    }
  in
  check Alcotest.string "torn"
    "torn write 40 (op 0, 100 bytes): state B,A is neither pre A,A nor post \
     B,B"
    (first_error torn_block);
  check Alcotest.string "recovery"
    "recovery prefix 3/4 after crash 6, seed 11: state <state> is neither \
     pre <state> nor post <state>"
    (first_error recovery_missing_flush)

let stats_t =
  Alcotest.testable
    (fun ppf (s : Crash_explore.stats) ->
      Format.fprintf ppf "%d writes, %d flushes, %d/%d/%d/%d points" s.writes
        s.flushes s.crash_points s.torn_points s.subset_points
        s.recovery_points)
    ( = )

(* The sweep must agree with the oracle on the census and on the verdict,
   down to the first failing point's message, while viewing each distinct
   crashed state at most twice (atomicity, then the idempotence re-view).
   Pre, post and, when recovery is explored, one recording view per
   boundary are extra. *)
let test_explore_matches_oracle ~sound (cfg : 'v Crash_explore.config) () =
  let contents dev =
    String.concat ""
      (List.init (Block_dev.blocks dev) (fun i ->
           Bytes.to_string (Block_dev.read dev i)))
  in
  let distinct = Hashtbl.create 64 in
  let expected =
    oracle_explore ~on_check:(fun d -> Hashtbl.replace distinct (contents d) ()) cfg
  in
  let views = ref 0 in
  let got =
    Crash_explore.explore
      { cfg with view = (fun dev -> incr views; cfg.view dev) }
  in
  check (Alcotest.result stats_t Alcotest.string) "same census and verdict"
    expected got;
  check Alcotest.bool "verdict" sound (Result.is_ok got);
  let nops =
    let dev = Block_dev.of_disk (Disk.create ~sectors:cfg.sectors ()) in
    cfg.setup dev;
    let journal, ops = Crash_explore.record dev in
    cfg.mutate journal;
    List.length (ops ())
  in
  let extra = 2 + if cfg.explore_recovery then nops + 1 else 0 in
  check Alcotest.bool
    (Printf.sprintf "%d views <= 2 x %d distinct + %d" !views
       (Hashtbl.length distinct) extra)
    true
    (!views <= (2 * Hashtbl.length distinct) + extra)

(* ------------------------------------------------------------------ *)
(* Faulty link *)

let payload = Bytes.init 1500 (fun i -> Char.chr (i land 0xff))

let test_link_lossless_transfer () =
  let got, _ =
    Faulty_link.run_transfer ~plan_ab:(Fault_plan.script [])
      ~plan_ba:(Fault_plan.script []) ~payload ~rounds:20 ()
  in
  check Alcotest.string "exact delivery" (Bytes.to_string payload) got

let test_link_lossy_transfer_recovers () =
  let rates = { Fault_plan.no_faults with drop = 200 } in
  let got, stats =
    Faulty_link.run_transfer
      ~plan_ab:(Fault_plan.seeded ~name:"t/lossy/ab" ~seed:4 ~rates ~limit:6 ())
      ~plan_ba:(Fault_plan.seeded ~name:"t/lossy/ba" ~seed:4 ~rates ~limit:6 ())
      ~payload ~rounds:80 ()
  in
  check Alcotest.string "exact delivery despite loss"
    (Bytes.to_string payload) got;
  check Alcotest.bool "faults actually injected" true
    (stats.Faulty_link.ab_faults + stats.Faulty_link.ba_faults > 0)

let test_link_stacks_end_to_end () =
  let module Nic = Bi_hw.Device.Nic in
  let module Stack = Bi_net.Stack in
  let a_nic = Nic.create ~mac:"\x02\x00\x00\x00\x00\x01" () in
  let b_nic = Nic.create ~mac:"\x02\x00\x00\x00\x00\x02" () in
  let sa = Stack.create ~nic:a_nic ~ip:0x0a000001l in
  let sb = Stack.create ~nic:b_nic ~ip:0x0a000002l in
  Stack.tcp_listen sb 80;
  let rates = { Fault_plan.no_faults with drop = 150; duplicate = 100 } in
  let l =
    Faulty_link.link
      ~plan_ab:(Fault_plan.seeded ~name:"t/stack/ab" ~seed:2 ~rates ~limit:5 ())
      ~plan_ba:(Fault_plan.seeded ~name:"t/stack/ba" ~seed:2 ~rates ~limit:5 ())
      a_nic b_nic
  in
  let cid = Stack.tcp_connect sa ~dst_ip:0x0a000002l ~dst_port:80 in
  Stack.tcp_send sa cid payload;
  let received = Buffer.create 1500 in
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
  check Alcotest.string "stack-level exact delivery"
    (Bytes.to_string payload) (Buffer.contents received)

(* ------------------------------------------------------------------ *)
(* The fi VC suite, discharged in-process *)

let vc_cases () =
  let vcs = Bi_fault.Fi_check.vcs () in
  List.map
    (fun (vc : Bi_core.Vc.t) ->
      Alcotest.test_case vc.Bi_core.Vc.id `Quick (fun () ->
          match Bi_core.Vc.catch vc.Bi_core.Vc.check with
          | Bi_core.Vc.Proved -> ()
          | o ->
              Alcotest.failf "%s: %a" vc.Bi_core.Vc.id Bi_core.Vc.pp_outcome o))
    vcs

let () =
  Alcotest.run "bi_fault"
    [
      ( "plan",
        [
          Alcotest.test_case "seeded deterministic" `Quick
            test_plan_seeded_deterministic;
          Alcotest.test_case "replay" `Quick test_plan_replay;
          Alcotest.test_case "limit" `Quick test_plan_limit;
          Alcotest.test_case "shrink" `Quick test_plan_shrink;
          Alcotest.test_case "enumerate" `Quick test_plan_enumerate;
        ] );
      ( "disk",
        [
          Alcotest.test_case "transparent without faults" `Quick
            test_disk_transparent_without_faults;
          Alcotest.test_case "stall respects barrier" `Quick
            test_disk_stall_respects_barrier;
        ] );
      ( "explore",
        [
          Alcotest.test_case "wal commit safe" `Quick
            test_explore_wal_commit_safe;
          Alcotest.test_case "catches unlogged writes" `Quick
            test_explore_catches_unlogged_writes;
        ]
        @ List.map
            (fun (name, run) -> Alcotest.test_case ("oracle " ^ name) `Quick run)
            [
              ( "wal 1-record",
                test_explore_matches_oracle ~sound:true
                  (wal_txn ~tears:[ 1; 8; 256; 511 ] ~seeds:[ 0; 1; 2; 3; 4 ] 1) );
              ( "wal 3-records",
                test_explore_matches_oracle ~sound:true
                  (wal_txn ~tears:[ 4; 256 ] ~seeds:[ 1; 2; 3 ] 3) );
              ( "wal recovery",
                test_explore_matches_oracle ~sound:true
                  (wal_txn ~seeds:[ 0; 1; 2 ] ~explore_recovery:true 2) );
              ( "fs rename recovery",
                test_explore_matches_oracle ~sound:true fs_rename );
              ( "header-before-records",
                test_explore_matches_oracle ~sound:false header_before_records );
              ( "recovery-missing-flush",
                test_explore_matches_oracle ~sound:false recovery_missing_flush );
            ]
        @ [
            Alcotest.test_case "failure labels" `Quick
              test_explore_failure_labels;
          ] );
      ( "link",
        [
          Alcotest.test_case "lossless transfer" `Quick
            test_link_lossless_transfer;
          Alcotest.test_case "lossy transfer recovers" `Quick
            test_link_lossy_transfer_recovers;
          Alcotest.test_case "stacks end to end" `Quick
            test_link_stacks_end_to_end;
        ] );
      ("vc-suite", vc_cases ());
    ]
