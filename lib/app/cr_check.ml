module P = Protocol
module J = Journal
module Vc = Bi_core.Vc
module Gen = Bi_core.Gen
module CE = Bi_fs.Crash_explore
module FP = Bi_fault.Fault_plan
module Fs = Bi_fs.Fs

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

let put_req ?(client = 1) ~seq key value =
  P.Put { key; value; crc = P.crc32 value; txn = Some { P.client; seq } }

let del_req ?(client = 1) ~seq key =
  P.Delete { key; txn = Some { P.client; seq } }

let is_done = function P.Done -> true | _ -> false

(* A journaled node over a directly mounted filesystem: store under
   [/blocks], journal at [/journal], both on the same device.  The store
   and journal are netd's own code ({!Node_core.file_store},
   {!Journal.file_sink}) on the {!Files.of_fs} backend in place of
   {!Files.of_usys}: same layout, same filesystem transactions. *)
let make_node ?dup_capacity ?(checkpoint_bytes = 64 * 1024) fs =
  let store = Node_core.fs_store fs in
  let j = J.create (J.fs_sink fs ~path:"/journal") in
  let core =
    Node_core.create ?dup_capacity ~journal:j ~journal_checkpoint:checkpoint_bytes
      store
  in
  (core, store, j)

(* A later life of the node on an existing device: mount, open, recover. *)
let reopen ?checkpoint_bytes dev =
  let core, store, _ = make_node ?checkpoint_bytes (Fs.mount dev) in
  let (_ : Node_core.recovery) = Node_core.recover core in
  (core, store)

(* What a crashed-and-recovered node observes: durable kv contents, the
   recovered duplicate table, and the degraded latch.  This is the ['v]
   every crash-exploration below compares — "old or new" is stated over
   exactly the state the exactly-once guarantee is about. *)
type obs = {
  kv : (string * string) list;
  dups : (P.txn * (int * P.resp)) list;
  deg : bool;
}

let pp_obs ppf { kv; dups; deg } =
  Format.fprintf ppf "kv=[%s] dups=[%s] degraded=%b"
    (String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) kv))
    (String.concat "; "
       (List.map
          (fun ({ P.client; seq }, (shard, resp)) ->
            Printf.sprintf "%d.%d@%d:%s" client seq shard
              (match resp with
              | P.Done -> "done"
              | P.Missing -> "missing"
              | _ -> "?"))
          dups))
    deg

let recovered_obs fs =
  let core, store, _ = make_node fs in
  let (_ : Node_core.recovery) = Node_core.recover core in
  {
    kv = Node_core.mem_contents store;
    dups = Node_core.dump_dups core;
    deg = Node_core.degraded core;
  }

(* A {!Bi_fs.Crash_explore} config for one journaled-node transaction:
   [setup] seeds committed state through a first node life, [mutate] is a
   second life — recover, then the operation under test — and [view]
   mounts the crashed device and runs a full recovery, observing {!obs}.
   Recovery is the crash handler here, so [explore_recovery] crashes
   {e recovery itself} at each of its own write boundaries. *)
let cr_config ?(tears = []) ?(seeds = []) ?(explore_recovery = false)
    ?(checkpoint_bytes = 64 * 1024) ~setup ~mutate () =
  {
    CE.sectors = 128;
    setup =
      (fun dev ->
        let fs = Fs.mkfs dev in
        let core, _, _ = make_node ~checkpoint_bytes fs in
        let (_ : Node_core.recovery) = Node_core.recover core in
        setup core);
    mutate = (fun dev -> mutate (fst (reopen ~checkpoint_bytes dev)));
    view = (fun dev -> recovered_obs (Fs.mount dev));
    equal = ( = );
    pp = Some pp_obs;
    tears;
    crash_seeds = seeds;
    explore_recovery;
  }

let handled core req =
  match Node_core.handle core req with
  | P.Done | P.Missing -> ()
  | resp ->
      failwith
        (Format.asprintf "unexpected response %s"
           (match resp with P.Err e -> Format.asprintf "%a" P.pp_err e | _ -> "?"))

(* ------------------------------------------------------------------ *)
(* Journal record serde                                                *)

let sample_records =
  [
    J.Mut
      {
        txn = Some { P.client = 3; seq = 7 };
        shard = 2;
        key = "k-1";
        put = Some ("some value", 0x1234_5678l);
        done_ = true;
      };
    J.Mut { txn = None; shard = 0; key = "x"; put = None; done_ = false };
    J.Cancel { degraded = true };
    J.Cancel { degraded = false };
    J.Snapshot
      {
        s_dups = [ (1, [ (9, 0, true); (8, 1, false) ]); (4, [ (2, 3, true) ]) ];
        s_sharding = Some (8, 5, [ 0; 3; 7 ], [ 3 ]);
        s_degraded = false;
      };
    J.Snapshot { s_dups = []; s_sharding = None; s_degraded = true };
    J.Enable { nshards = 4; version = 1; owned = [ 0; 1 ] };
    J.Adopt 3;
    J.Release 0;
    J.Freeze 2;
    J.Unfreeze 2;
    J.Map_version 12;
    J.Import
      {
        shard = 1;
        entries =
          [ ({ P.client = 2; seq = 5 }, true); ({ P.client = 2; seq = 6 }, false) ];
      };
  ]

let serde_vcs () =
  [
    Vc.prop ~id:"cr/serde/record-roundtrip" ~category:"cr/serde" (fun () ->
        List.for_all
          (fun r -> J.decode_record (J.encode_record r) = Some r)
          sample_records);
    Vc.prop ~id:"cr/serde/strict-prefix-rejected" ~category:"cr/serde"
      (fun () ->
        (* Every strict prefix is a truncation error, and any trailing
           byte is rejected — a record is exactly its encoding. *)
        List.for_all
          (fun r ->
            let enc = J.encode_record r in
            let n = Bytes.length enc in
            List.for_all
              (fun l -> J.decode_record (Bytes.sub enc 0 l) = None)
              (List.init n Fun.id)
            && J.decode_record (Bytes.cat enc (Bytes.make 1 '\000')) = None)
          sample_records);
    Vc.prop ~id:"cr/serde/decode-total-under-corruption" ~category:"cr/serde"
      (Vc.forall_sampled ~id:"cr/serde/decode-total-under-corruption" ~n:500
         (fun g ->
           let r = Gen.oneof g sample_records in
           FP.corrupt_bytes g (J.encode_record r))
         (fun b ->
           try
             ignore (J.decode_record b : J.record option);
             true
           with _ -> false));
    Vc.prop ~id:"cr/serde/stream-total-under-corruption" ~category:"cr/serde"
      (Vc.forall_sampled ~id:"cr/serde/stream-total-under-corruption" ~n:300
         (fun g ->
           let stream =
             Bytes.concat Bytes.empty (List.map J.frame_record sample_records)
           in
           FP.corrupt_bytes g stream)
         (fun b ->
           try
             ignore (J.decode_stream b : J.record list * bool);
             true
           with _ -> false));
    Vc.prop ~id:"cr/serde/stream-torn-prefix" ~category:"cr/serde" (fun () ->
        (* Cutting the stream at every byte yields exactly the records
           whose frames lie wholly before the cut, with the torn flag
           exactly when the cut is mid-record; a flipped byte in the
           first frame loses the whole tail to the CRC, never a garbled
           record. *)
        let frames = List.map J.frame_record sample_records in
        let stream = Bytes.concat Bytes.empty frames in
        let total = Bytes.length stream in
        let boundaries =
          List.fold_left
            (fun acc f -> (List.hd acc + Bytes.length f) :: acc)
            [ 0 ] frames
        in
        let rec is_prefix xs ys =
          match (xs, ys) with
          | [], _ -> true
          | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
          | _ :: _, [] -> false
        in
        List.for_all
          (fun l ->
            let records, torn = J.decode_stream (Bytes.sub stream 0 l) in
            let complete =
              List.length (List.filter (fun b -> b <= l) boundaries) - 1
            in
            List.length records = complete
            && is_prefix records sample_records
            && torn = not (List.mem l boundaries))
          (List.init (total + 1) Fun.id)
        &&
        let flipped = Bytes.copy stream in
        Bytes.set flipped 3 (Char.chr (Char.code (Bytes.get flipped 3) lxor 0x41));
        let records, torn = J.decode_stream flipped in
        records = [] && torn);
  ]

(* ------------------------------------------------------------------ *)
(* Crash exploration of the commit protocol                            *)

let commit_vcs () =
  [
    Vc.make ~id:"cr/commit/put-new-atomic" ~category:"cr/commit" (fun () ->
        CE.must_census
          {
            writes = 35;
            flushes = 17;
            crash_points = 53;
            torn_points = 35;
            subset_points = 106;
            recovery_points = 0;
          }
          (CE.explore
             (cr_config ~tears:[ 100 ] ~seeds:[ 1; 2 ]
                ~setup:(fun core -> handled core (put_req ~seq:1 "k1" "alpha"))
                ~mutate:(fun core -> handled core (put_req ~seq:2 "k2" "beta"))
                ())));
    Vc.make ~id:"cr/commit/put-overwrite-atomic" ~category:"cr/commit"
      (fun () ->
        CE.must_census
          {
            writes = 27;
            flushes = 13;
            crash_points = 41;
            torn_points = 27;
            subset_points = 82;
            recovery_points = 0;
          }
          (CE.explore
             (cr_config ~tears:[ 100 ] ~seeds:[ 1; 2 ]
                ~setup:(fun core -> handled core (put_req ~seq:1 "k" "old"))
                ~mutate:(fun core -> handled core (put_req ~seq:2 "k" "new"))
                ())));
    Vc.make ~id:"cr/commit/delete-present-atomic" ~category:"cr/commit"
      (fun () ->
        CE.must_census
          {
            writes = 22;
            flushes = 9;
            crash_points = 32;
            torn_points = 22;
            subset_points = 64;
            recovery_points = 0;
          }
          (CE.explore
             (cr_config ~tears:[ 100 ] ~seeds:[ 1; 2 ]
                ~setup:(fun core -> handled core (put_req ~seq:1 "k" "doomed"))
                ~mutate:(fun core -> handled core (del_req ~seq:2 "k"))
                ())));
    Vc.make ~id:"cr/commit/delete-absent-journal-only" ~category:"cr/commit"
      (fun () ->
        (* A delete of an absent key commits a [Missing] record with no
           store effect: the only durable change is the dup entry, and it
           must still be all-or-nothing. *)
        CE.must_census
          {
            writes = 8;
            flushes = 5;
            crash_points = 14;
            torn_points = 8;
            subset_points = 28;
            recovery_points = 0;
          }
          (CE.explore
             (cr_config ~tears:[ 64 ] ~seeds:[ 1; 2 ]
                ~setup:(fun core -> handled core (put_req ~seq:1 "k" "kept"))
                ~mutate:(fun core -> handled core (del_req ~seq:2 "absent"))
                ())));
    Vc.make ~id:"cr/commit/dup-retry-no-writes" ~category:"cr/commit"
      (fun () ->
        (* A retry of a committed mutation is answered from the recovered
           dup table without touching the device at all: zero writes,
           zero flushes, so the only crash point is the trivial one. *)
        CE.must_census
          {
            writes = 0;
            flushes = 0;
            crash_points = 1;
            torn_points = 0;
            subset_points = 0;
            recovery_points = 0;
          }
          (CE.explore
             (cr_config
                ~setup:(fun core -> handled core (put_req ~seq:1 "k" "v"))
                ~mutate:(fun core -> handled core (put_req ~seq:1 "k" "v"))
                ())));
    Vc.make ~id:"cr/commit/checkpoint-atomic" ~category:"cr/commit" (fun () ->
        (* A 1-byte threshold forces the commit to be followed by the
           two-file checkpoint dance; crashing anywhere inside it — and
           inside the recovery that settles it — must still observe old
           or new. *)
        CE.must_census
          {
            writes = 81;
            flushes = 39;
            crash_points = 121;
            torn_points = 0;
            subset_points = 242;
            recovery_points = 7020;
          }
          (CE.explore
             (cr_config ~seeds:[ 1; 2 ] ~explore_recovery:true
                ~checkpoint_bytes:1
                ~setup:(fun core -> handled core (put_req ~seq:1 "k1" "alpha"))
                ~mutate:(fun core -> handled core (put_req ~seq:2 "k2" "beta"))
                ())));
    Vc.make ~id:"cr/recover/idempotent-every-boundary" ~category:"cr/recover"
      (fun () ->
        (* Crash recovery at every one of its own write boundaries and
           re-recover: the explorer checks idempotence at each point. *)
        CE.must_census
          {
            writes = 27;
            flushes = 13;
            crash_points = 41;
            torn_points = 0;
            subset_points = 123;
            recovery_points = 3256;
          }
          (CE.explore
             (cr_config ~seeds:[ 0; 1; 2 ] ~explore_recovery:true
                ~setup:(fun core -> handled core (put_req ~seq:1 "k" "old"))
                ~mutate:(fun core -> handled core (put_req ~seq:2 "k" "new"))
                ())));
  ]

(* ------------------------------------------------------------------ *)
(* Mutation self-checks                                                *)

let mutation_vcs () =
  [
    Vc.prop ~id:"cr/mutation/journal-after-apply-caught" ~category:"cr/mutation"
      (fun () ->
        (* The seeded ordering bug — store write before the commit
           record — leaves a crash window where the store holds a key
           recovery knows nothing about: neither old nor new.  The
           mutant life saves the value through the store and only then
           hands the node the Put; the explorer must find the window.
           (A fresh key, deliberately: for an overwrite, replay would
           force the key back to the last committed record and mask the
           bug.) *)
        let cfg =
          cr_config ~tears:[ 100 ] ~seeds:[ 1; 2 ]
            ~setup:(fun core -> handled core (put_req ~seq:1 "k1" "alpha"))
            ~mutate:ignore ()
        in
        let store_first dev =
          let core, store = reopen dev in
          ignore (store.save "k2" { value = "beta"; crc = P.crc32 "beta" });
          handled core (put_req ~seq:2 "k2" "beta")
        in
        Result.is_error (CE.explore { cfg with mutate = store_first }));
    Vc.prop ~id:"cr/mutation/skipped-recovery-caught" ~category:"cr/mutation"
      (fun () ->
        (* A respawn that "recovers" by just starting fresh (PR 9's
           behaviour) double-applies a straddling retry; the exactly-once
           predicate must separate it from real recovery. *)
        let exactly_once ~recover_on_restart =
          let sink, _ = J.mem_sink () in
          let store = Node_core.mem_store () in
          let mk () = Node_core.create ~journal:(J.create sink) store in
          let life1 = mk () in
          let req = put_req ~client:7 ~seq:1 "k" "v" in
          let first = Node_core.handle life1 req in
          let life2 = mk () in
          if recover_on_restart then
            ignore (Node_core.recover life2 : Node_core.recovery);
          let retry = Node_core.handle life2 req in
          is_done first && is_done retry
          && Node_core.applied life1 + Node_core.applied life2 = 1
        in
        exactly_once ~recover_on_restart:true
        && not (exactly_once ~recover_on_restart:false));
  ]

(* ------------------------------------------------------------------ *)
(* Degraded-on-recovery                                                *)

let degraded_vcs () =
  [
    Vc.prop ~id:"cr/degraded/replay-store-failure" ~category:"cr/degraded"
      (fun () ->
        (* Journal replay onto a store whose second write fails: the node
           must come up — degraded, read-only — still serving every
           recovered read and answering the failed redo's retry from the
           restored dup table rather than re-evaluating it. *)
        let sink, _ = J.mem_sink () in
        let life1 =
          Node_core.create ~journal:(J.create sink) (Node_core.mem_store ())
        in
        List.iter (handled life1)
          [
            put_req ~seq:1 "a" "1"; put_req ~seq:2 "b" "2"; put_req ~seq:3 "c" "3";
          ];
        let store2 =
          Node_core.mem_store
            ~write_faults:(FP.script [ FP.Pass; FP.Drop ]) ()
        in
        let life2 = Node_core.create ~journal:(J.create sink) store2 in
        let r = Node_core.recover life2 in
        r.r_store_failures = 1 && r.r_redone = 2
        && Node_core.degraded life2
        && (match Node_core.handle life2 (P.Get "a") with
           | P.Value { value = "1"; _ } -> true
           | _ -> false)
        && (match Node_core.handle life2 (P.Get "c") with
           | P.Value { value = "3"; _ } -> true
           | _ -> false)
        && is_done (Node_core.handle life2 (put_req ~seq:2 "b" "2"))
        && Node_core.handle life2 (put_req ~seq:4 "d" "4") = P.Err P.Read_only);
    Vc.prop ~id:"cr/degraded/journal-unreadable" ~category:"cr/degraded"
      (fun () ->
        (* An unreadable journal cannot rebuild the dup table, so serving
           mutations could double-apply: the node latches degraded but
           keeps serving the surviving store's reads. *)
        let sink, _ = J.mem_sink ~faults:(FP.script [ FP.Pass; FP.Drop ]) () in
        let store = Node_core.mem_store () in
        let life1 = Node_core.create ~journal:(J.create sink) store in
        handled life1 (put_req ~seq:1 "a" "1");
        let life2 = Node_core.create ~journal:(J.create sink) store in
        let r = Node_core.recover life2 in
        r.r_journal_error
        && Node_core.degraded life2
        && (match Node_core.handle life2 (P.Get "a") with
           | P.Value { value = "1"; _ } -> true
           | _ -> false)
        && Node_core.handle life2 (put_req ~seq:2 "b" "2") = P.Err P.Read_only);
  ]

(* ------------------------------------------------------------------ *)
(* Recovery semantics over the in-memory worlds                        *)

let recover_vcs () =
  [
    Vc.prop ~id:"cr/recover/rebuilds-from-journal" ~category:"cr/recover"
      (fun () ->
        (* From a full journal, recovery onto an empty store reconstructs
           the entire node: kv contents, dup table, latches. *)
        let sink, _ = J.mem_sink () in
        let store1 = Node_core.mem_store () in
        let life1 = Node_core.create ~journal:(J.create sink) store1 in
        List.iter (handled life1)
          [
            put_req ~seq:1 "a" "1";
            put_req ~seq:2 "b" "2";
            del_req ~seq:3 "b";
            put_req ~seq:4 "c" "3";
            del_req ~seq:5 "ghost";
          ];
        let store2 = Node_core.mem_store () in
        let life2 = Node_core.create ~journal:(J.create sink) store2 in
        let r = Node_core.recover life2 in
        Node_core.mem_contents store2 = Node_core.mem_contents store1
        && Node_core.dump_dups life2 = Node_core.dump_dups life1
        && (not (Node_core.degraded life2))
        && r.r_dup_entries = 5 && not r.r_torn_tail);
    Vc.prop ~id:"cr/recover/idempotent" ~category:"cr/recover" (fun () ->
        (* Recovering an already-recovered node observes nothing new:
           the state snapshot is unchanged and the replay is the same
           replay, down to its counts: recovery writes only each key's
           final value, so a second pass finds the store final and
           writes nothing. *)
        let sink, _ = J.mem_sink () in
        let store = Node_core.mem_store () in
        let life1 = Node_core.create ~journal:(J.create sink) store in
        List.iter (handled life1)
          [ put_req ~seq:1 "a" "1"; del_req ~seq:2 "a"; put_req ~seq:3 "b" "2" ];
        let life2 = Node_core.create ~journal:(J.create sink) store in
        let first = Node_core.recover life2 in
        let snap () =
          ( Node_core.mem_contents store,
            Node_core.dump_dups life2,
            Node_core.degraded life2,
            Node_core.applied life2 )
        in
        let before = snap () in
        let again = Node_core.recover life2 in
        again = first && snap () = before);
    Vc.prop ~id:"cr/recover/redoes-committed-unapplied" ~category:"cr/recover"
      (fun () ->
        (* A Mut record with no store effect behind it is exactly the
           crash window between commit append and apply: recovery redoes
           the write and the retry is a dup hit. *)
        let sink, _ = J.mem_sink () in
        let store = Node_core.mem_store () in
        let j = J.create sink in
        let life1 = Node_core.create ~journal:j store in
        handled life1 (put_req ~seq:1 "a" "1");
        (match
           J.append j
             (J.Mut
                {
                  txn = Some { P.client = 1; seq = 2 };
                  shard = 0;
                  key = "b";
                  put = Some ("2", P.crc32 "2");
                  done_ = true;
                })
         with
        | Ok () -> ()
        | Error _ -> failwith "append");
        let life2 = Node_core.create ~journal:(J.create sink) store in
        let r = Node_core.recover life2 in
        r.r_redone = 1 && r.r_skipped = 1
        && Node_core.mem_contents store = [ ("a", "1"); ("b", "2") ]
        && is_done (Node_core.handle life2 (put_req ~seq:2 "b" "2"))
        && Node_core.applied life2 = 0);
    Vc.prop ~id:"cr/recover/cancelled-not-replayed" ~category:"cr/recover"
      (fun () ->
        (* A commit whose apply failed was answered with an error and
           followed by a Cancel: replay must not resurrect it, and must
           not let a retry be answered [Done] for a write that never
           happened. *)
        let sink, _ = J.mem_sink () in
        let store1 =
          Node_core.mem_store ~write_faults:(FP.script [ FP.Pass; FP.Drop ]) ()
        in
        let life1 = Node_core.create ~journal:(J.create sink) store1 in
        handled life1 (put_req ~seq:1 "a" "1");
        let failed = Node_core.handle life1 (put_req ~seq:2 "b" "2") in
        let store2 = Node_core.mem_store () in
        let life2 = Node_core.create ~journal:(J.create sink) store2 in
        let r = Node_core.recover life2 in
        (match failed with P.Err (P.Io _) -> true | _ -> false)
        && r.r_cancelled = 1
        && Node_core.mem_contents store2 = [ ("a", "1") ]
        && Node_core.dump_dups life2 = Node_core.dump_dups life1
        && List.length (Node_core.dump_dups life2) = 1
        && Node_core.degraded life2);
    Vc.prop ~id:"cr/recover/torn-tail-discarded" ~category:"cr/recover"
      (fun () ->
        (* Garbage after the last committed record — the torn append of a
           mutation that was never acknowledged — is discarded; every
           committed record survives. *)
        let sink, buf = J.mem_sink () in
        let store = Node_core.mem_store () in
        let life1 = Node_core.create ~journal:(J.create sink) store in
        List.iter (handled life1) [ put_req ~seq:1 "a" "1"; put_req ~seq:2 "b" "2" ];
        Buffer.add_string buf "\x1f\xfftorn";
        let store2 = Node_core.mem_store () in
        let life2 = Node_core.create ~journal:(J.create sink) store2 in
        let r = Node_core.recover life2 in
        r.r_torn_tail && r.r_redone = 2
        && Node_core.mem_contents store2 = Node_core.mem_contents store
        && not (Node_core.degraded life2));
    Vc.prop ~id:"cr/recover/snapshot-equivalence" ~category:"cr/recover"
      (fun () ->
        (* Recovery through a checkpoint snapshot observes exactly the
           state a full-journal replay would. *)
        let sink, _ = J.mem_sink () in
        let store = Node_core.mem_store () in
        let life1 = Node_core.create ~journal:(J.create sink) store in
        List.iter (handled life1) [ put_req ~seq:1 "a" "1"; del_req ~seq:2 "a" ];
        (match Node_core.checkpoint life1 with
        | Ok () -> ()
        | Error _ -> failwith "checkpoint");
        handled life1 (put_req ~seq:3 "b" "2");
        let life2 = Node_core.create ~journal:(J.create sink) store in
        let r = Node_core.recover life2 in
        r.r_snapshot && r.r_records = 2
        && Node_core.dump_dups life2 = Node_core.dump_dups life1
        && (not (Node_core.degraded life2))
        && Node_core.mem_contents store = [ ("b", "2") ]);
    Vc.prop ~id:"cr/recover/auto-checkpoint-bounds-journal" ~category:"cr/recover"
      (fun () ->
        (* The size-triggered checkpoint keeps the journal bounded under
           a steady mutation stream, and recovery through whichever
           snapshot it last wrote still reconstructs the node. *)
        let sink, _ = J.mem_sink () in
        let store = Node_core.mem_store () in
        let j = J.create sink in
        let life1 =
          Node_core.create ~journal:j ~journal_checkpoint:256 store
        in
        for i = 1 to 40 do
          handled life1 (put_req ~seq:i (Printf.sprintf "k%02d" i) "payload")
        done;
        let life2 = Node_core.create ~journal:(J.create sink) store in
        let r = Node_core.recover life2 in
        Node_core.checkpoints life1 >= 3
        && J.size j < 512
        && r.r_snapshot
        && Node_core.dump_dups life2 = Node_core.dump_dups life1
        && List.length (Node_core.mem_contents store) = 40);
    Vc.prop ~id:"cr/recover/shard-ownership-replayed" ~category:"cr/recover"
      (fun () ->
        (* Sharding control-plane transitions are journaled, so a
           restarted node reconstructs ownership, freezes, and the map
           version without being re-told. *)
        let sink, _ = J.mem_sink () in
        let store = Node_core.mem_store () in
        let life1 = Node_core.create ~journal:(J.create sink) store in
        Node_core.enable_sharding life1 ~nshards:4 ~version:1 ~owned:[ 0; 1 ];
        (match Node_core.adopt life1 ~shard:2 with
        | Ok () -> ()
        | Error _ -> failwith "adopt");
        Node_core.freeze life1 ~shard:0;
        Node_core.set_map_version life1 2;
        (match Node_core.release life1 ~shard:1 with
        | Ok () -> ()
        | Error _ -> failwith "release");
        let life2 = Node_core.create ~journal:(J.create sink) store in
        let (_ : Node_core.recovery) = Node_core.recover life2 in
        Node_core.shard_state life2 = Node_core.shard_state life1
        && Node_core.shard_state life2 = Some (2, [ 0; 2 ], [ 0 ]));
  ]

(* ------------------------------------------------------------------ *)
(* Exactly-once across the restart                                     *)

let exactly_once_vcs () =
  [
    Vc.prop ~id:"cr/exactly-once/retry-across-restart" ~category:"cr/exactly-once"
      (fun () ->
        (* The nd crash worlds' former RAmbig case, settled: a put and a
           delete acknowledged just before the crash are retried against
           the recovered node and answered from the restored dup table —
           the delete answers [Done] again even though the key is gone,
           and nothing is re-applied. *)
        let sink, _ = J.mem_sink () in
        let store = Node_core.mem_store () in
        let life1 = Node_core.create ~journal:(J.create sink) store in
        List.iter (handled life1)
          [ put_req ~client:7 ~seq:1 "k" "v"; del_req ~client:7 ~seq:2 "k" ];
        let life2 = Node_core.create ~journal:(J.create sink) store in
        let (_ : Node_core.recovery) = Node_core.recover life2 in
        is_done (Node_core.handle life2 (put_req ~client:7 ~seq:1 "k" "v"))
        && is_done (Node_core.handle life2 (del_req ~client:7 ~seq:2 "k"))
        && Node_core.handle life2 (P.Get "k") = P.Missing
        && Node_core.dup_hits life2 = 2
        && Node_core.applied life2 = 0);
    Vc.prop ~id:"cr/exactly-once/missing-answer-survives" ~category:"cr/exactly-once"
      (fun () ->
        (* A [Missing] answer is exactly-once state too: the journal-only
           record restores it, so the retry does not re-evaluate against
           a store where the key has meanwhile appeared. *)
        let sink, _ = J.mem_sink () in
        let store = Node_core.mem_store () in
        let life1 = Node_core.create ~journal:(J.create sink) store in
        (match Node_core.handle life1 (del_req ~seq:1 "k") with
        | P.Missing -> ()
        | _ -> failwith "expected Missing");
        handled life1 (put_req ~seq:2 "k" "v");
        let life2 = Node_core.create ~journal:(J.create sink) store in
        let (_ : Node_core.recovery) = Node_core.recover life2 in
        Node_core.handle life2 (del_req ~seq:1 "k") = P.Missing
        && (match Node_core.handle life2 (P.Get "k") with
           | P.Value { value = "v"; _ } -> true
           | _ -> false));
  ]

(* ------------------------------------------------------------------ *)
(* Recovery × migration                                                *)

let migrate_vcs () =
  [
    Vc.prop ~id:"cr/migrate/import-merges-with-recovered" ~category:"cr/migrate"
      (fun () ->
        (* Recover, then receive a shard migration: the imported dup
           entries merge with the recovered ones by highest seq, and a
           retry of the pre-crash txn is still answered once. *)
        let sink, _ = J.mem_sink () in
        let store = Node_core.mem_store () in
        let shard k =
          Shard_map.shard_of ~nshards:4 k
        in
        let key = "mig" in
        let life1 = Node_core.create ~journal:(J.create sink) store in
        Node_core.enable_sharding life1 ~nshards:4 ~version:1
          ~owned:[ 0; 1; 2; 3 ];
        handled life1 (put_req ~client:1 ~seq:1 key "v1");
        let life2 = Node_core.create ~journal:(J.create sink) store in
        let (_ : Node_core.recovery) = Node_core.recover life2 in
        Node_core.import_dups life2 ~shard:(shard key)
          [
            ({ P.client = 1; seq = 2 }, P.Done);
            ({ P.client = 1; seq = 3 }, P.Missing);
          ];
        let dups = List.map fst (Node_core.dump_dups life2) in
        dups
        = [
            { P.client = 1; seq = 1 };
            { P.client = 1; seq = 2 };
            { P.client = 1; seq = 3 };
          ]
        && is_done (Node_core.handle life2 (put_req ~client:1 ~seq:1 key "v1"))
        && is_done (Node_core.handle life2 (put_req ~client:1 ~seq:2 key "x"))
        && Node_core.applied life2 = 0);
    Vc.prop ~id:"cr/migrate/import-survives-restart" ~category:"cr/migrate"
      (fun () ->
        (* The import itself is journaled: crash after the hand-off and
           the re-recovered node still answers the migrated txns from its
           table. *)
        let sink, _ = J.mem_sink () in
        let store = Node_core.mem_store () in
        let life1 = Node_core.create ~journal:(J.create sink) store in
        Node_core.enable_sharding life1 ~nshards:4 ~version:1 ~owned:[ 0; 1 ];
        (match Node_core.adopt life1 ~shard:2 with
        | Ok () -> ()
        | Error _ -> failwith "adopt");
        Node_core.import_dups life1 ~shard:2
          [ ({ P.client = 5; seq = 9 }, P.Done) ];
        let life2 = Node_core.create ~journal:(J.create sink) store in
        let (_ : Node_core.recovery) = Node_core.recover life2 in
        Node_core.dump_dups life2 = Node_core.dump_dups life1
        && List.mem_assoc { P.client = 5; seq = 9 } (Node_core.dump_dups life2)
        && Node_core.shard_state life2 = Some (1, [ 0; 1; 2 ], []));
    Vc.prop ~id:"cr/migrate/export-deterministic" ~category:"cr/migrate"
      (fun () ->
        (* Satellite: exports are sorted by (client, seq), not Hashtbl
           fold order — insert across many clients in scrambled order and
           the export is still canonical. *)
        let core = Node_core.create (Node_core.mem_store ()) in
        let clients = [ 29; 3; 17; 11; 23; 5; 2; 13 ] in
        List.iter
          (fun c -> handled core (put_req ~client:c ~seq:(c mod 3) "k" "v"))
          clients;
        let exported = Node_core.export_dups core ~shard:0 in
        let sorted =
          List.sort
            (fun ({ P.client = c1; seq = s1 }, _) ({ P.client = c2; seq = s2 }, _) ->
              match Int.compare c1 c2 with 0 -> Int.compare s1 s2 | c -> c)
            exported
        in
        exported = sorted
        && List.length exported = List.length clients
        && List.map fst (Node_core.dump_dups core) = List.map fst sorted);
  ]

(* ------------------------------------------------------------------ *)
(* Crash-point census                                                  *)

let census_vcs () =
  [
    Vc.make ~id:"cr/commit/crash-point-census" ~category:"cr/commit" (fun () ->
        (* Pin the exact write/flush profile of one journaled put of a
           fresh key so the exploration provably covers every boundary:
           the journal append is one WAL transaction + sync, then the
           store's one block file is two more (its create, and one data
           write of checksum header and value) — 35 block writes over 17
           flush epochs, 53 prefix crash points, a torn variant of every
           write, two seeded survival subsets per boundary.  A protocol change that
           adds or removes a durability point must update this census
           consciously. *)
        CE.must_census
          {
            writes = 35;
            flushes = 17;
            crash_points = 53;
            torn_points = 35;
            subset_points = 106;
            recovery_points = 0;
          }
          (CE.explore
             (cr_config ~tears:[ 100 ] ~seeds:[ 1; 2 ]
                ~setup:(fun core -> handled core (put_req ~seq:1 "k1" "alpha"))
                ~mutate:(fun core -> handled core (put_req ~seq:2 "k2" "beta"))
                ())));
  ]

let vcs () =
  serde_vcs () @ commit_vcs () @ census_vcs () @ mutation_vcs ()
  @ degraded_vcs () @ recover_vcs () @ exactly_once_vcs () @ migrate_vcs ()
