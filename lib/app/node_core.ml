module P = Protocol
module Fs = Bi_fs.Fs

type stored = { value : string; crc : int32 }

type store = {
  load : string -> (stored option, P.err) result;
  save : string -> stored -> (unit, P.err) result;
  remove : string -> (bool, P.err) result;
  keys : unit -> (string list, P.err) result;
}

let max_clients = 64

(* One remembered mutation: its txn's seq, the shard of the key it
   mutated, and its response ([Done] or [Missing]). *)
type entry = { seq : int; shard : int; resp : P.resp }

(* Shard ownership, when the node is part of a sharded cluster.  [owned]
   is what this node serves; [frozen] marks shards mid-migration on the
   source side: reads are still served (the copy itself reads through
   the protocol) but mutations are refused with [Wrong_shard], to be
   re-routed by the client once the map flips. *)
type sharding = {
  nshards : int;
  mutable map_version : int;
  owned : bool array;
  frozen : bool array;
}

type t = {
  store : store;
  pool : Bi_ulib.Ualloc.Pool.t option;
      (* request/response buffer pool for the byte-level entry point *)
  dup_capacity : int;
  epoch : int;
  (* (client, its entries newest first), the client journaled most
     recently first: each entry remembers the shard of the key it
     mutated, so a migration can carry exactly the entries that move
     with the shard.  An immutable list: a node tracks few clients, and
     {!retire} keeps the table without copying it. *)
  mutable dups : (int * entry list) list;
  mutable sharding : sharding option;
  mutable degraded : bool;
  mutable shutdown : bool;
  mutable applied : int;
  mutable dup_hits : int;
  (* Crash durability: every mutation is appended as one Journal.Mut
     record *before* the store apply (the append is the commit point),
     and every control-plane transition is appended, then applied;
     [recover] replays the log on restart through the same [apply]. *)
  journal : Journal.t;
  journal_checkpoint : int; (* auto-checkpoint size threshold, bytes *)
  mutable checkpoints : int;
}

let create ?pool ?(dup_capacity = 8) ?(epoch = 0)
    ?(journal = Journal.create (fst (Journal.mem_sink ())))
    ?(journal_checkpoint = 32 * 1024) store =
  {
    store;
    pool;
    dup_capacity;
    epoch;
    dups = [];
    sharding = None;
    degraded = false;
    shutdown = false;
    applied = 0;
    dup_hits = 0;
    journal;
    journal_checkpoint;
    checkpoints = 0;
  }

(* A retired core's store and journal: shared constants that refuse
   every call, so a core whose process is gone holds no I/O handle. *)
let retired = P.Io "retired core: its process has exited"

let retired_store =
  {
    load = (fun _ -> Error retired);
    save = (fun _ _ -> Error retired);
    remove = (fun _ -> Error retired);
    keys = (fun () -> Error retired);
  }

let retired_journal =
  Journal.create
    {
      sink_read = (fun () -> Error retired);
      sink_append = (fun _ -> Error retired);
      sink_replace = (fun _ -> Error retired);
    }

let retire t ~epoch =
  {
    t with
    epoch;
    store = retired_store;
    journal = retired_journal;
    pool = None;
  }

let wants_shutdown t = t.shutdown
let degraded t = t.degraded
let epoch t = t.epoch
let applied t = t.applied
let dup_hits t = t.dup_hits
let checkpoints t = t.checkpoints

(* ------------------------------------------------------------------ *)
(* Shard ownership                                                     *)

(* The shards a mask marks, ascending. *)
let list_of mask =
  Array.to_list (Array.mapi (fun s b -> (s, b)) mask)
  |> List.filter_map (fun (s, b) -> if b then Some s else None)

let shard_lists sh =
  (sh.nshards, sh.map_version, list_of sh.owned, list_of sh.frozen)

let shard_state t =
  Option.map
    (fun sh -> (sh.map_version, list_of sh.owned, list_of sh.frozen))
    t.sharding

let with_sharding t f =
  match t.sharding with
  | None -> invalid_arg "Node_core: node is not sharded"
  | Some sh -> f sh

(* The control plane's precondition, checked before anything is
   journaled: the node is sharded and [shard] is in range. *)
let check_shard t shard =
  with_sharding t (fun sh ->
      if shard < 0 || shard >= sh.nshards then
        invalid_arg "Node_core: shard out of range")

(* Which shard a key belongs to on this node: the map's hash when
   sharded, a single catch-all shard 0 otherwise (so the dup table is
   uniformly tagged either way). *)
let shard_of_key t key =
  match t.sharding with
  | None -> 0
  | Some sh -> Shard_map.shard_of ~nshards:sh.nshards key

(* Best-effort sweep of [shard]'s keys out of the store: every key is
   attempted even if some removes fail, and the first error (if any) is
   returned — a partial sweep leaves as little residue as possible. *)
let sweep_shard t ~shard =
  match t.store.keys () with
  | Error e -> Error e
  | Ok ks ->
      List.fold_left
        (fun acc k ->
          if shard_of_key t k <> shard then acc
          else
            match t.store.remove k with
            | Ok _ -> acc
            | Error e -> ( match acc with Ok () -> Error e | _ -> acc))
        (Ok ()) ks

(* [Ok shard] when this node may perform the request on [key];
   [Error (Wrong_shard v)] otherwise.  Reads are served on frozen shards
   (the migration copy reads through this path); mutations are not. *)
let route t key ~mutation =
  match t.sharding with
  | None -> Ok 0
  | Some sh ->
      let s = Shard_map.shard_of ~nshards:sh.nshards key in
      if sh.owned.(s) && not (mutation && sh.frozen.(s)) then Ok s
      else Error (P.Wrong_shard sh.map_version)

(* ------------------------------------------------------------------ *)
(* Bounded per-client duplicate table                                  *)

let client_entries t client =
  Option.value (List.assoc_opt client t.dups) ~default:[]

(* The table's one insert, reached only from {!apply}: [client] moves to
   the front with [entries], and a full table drops its last client, so
   the table holds the [max_clients] clients journaled most recently. *)
let dup_insert t client entries =
  t.dups <-
    (client, entries) :: List.remove_assoc client t.dups
    |> List.filteri (fun i _ -> i < max_clients)

(* A pure read: a hit answers the retry and changes nothing, since it
   journals nothing that a recovered node could replay. *)
let dup_lookup t = function
  | None -> None
  | Some { P.client; seq } ->
      List.find_opt (fun e -> e.seq = seq) (client_entries t client)
      |> Option.map (fun e -> e.resp)

let resp_of_done done_ = if done_ then P.Done else P.Missing

(* [txn]'s entry added to its client's entries (replacing any entry of
   the same seq), those put in [order] and cut to [dup_capacity]. *)
let dup_add t ~order ~shard { P.client; seq } done_ =
  dup_insert t client
    ({ seq; shard; resp = resp_of_done done_ }
     :: List.filter (fun e -> e.seq <> seq) (client_entries t client)
    |> order
    |> List.filteri (fun i _ -> i < t.dup_capacity))

(* Deterministic order for anything that leaves the table by txn: a
   client's entries are newest first, so every export is sorted by
   (client id, seq) explicitly — migration hand-offs and the
   world-determinism VCs rely on it. *)
let compare_txn { P.client = c1; seq = s1 } { P.client = c2; seq = s2 } =
  match Int.compare c1 c2 with 0 -> Int.compare s1 s2 | c -> c

let sorted_entries t f =
  t.dups
  |> List.concat_map (fun (client, entries) ->
         List.filter_map
           (fun e -> Option.map (fun x -> ({ P.client; seq = e.seq }, x)) (f e))
           entries)
  |> List.sort (fun (t1, _) (t2, _) -> compare_txn t1 t2)

let export_dups t ~shard =
  sorted_entries t (fun e -> if e.shard = shard then Some e.resp else None)

(* The whole table, every shard, in the same deterministic order — the
   observation the recovery and determinism VCs compare across a
   restart. *)
let dump_dups t = sorted_entries t (fun e -> Some (e.shard, e.resp))

(* The whole table in journal form: clients journaled longest ago
   first, each with its entries newest first — the order a checkpoint
   keeps, so a recovered node evicts as its live self would have. *)
let snapshot_dups t =
  List.rev_map
    (fun (client, entries) ->
      (client, List.map (fun e -> (e.seq, e.shard, e.resp = P.Done)) entries))
    t.dups

(* ------------------------------------------------------------------ *)
(* What a journal record means                                         *)

let sharding_of ~nshards ~version ~owned ~frozen =
  let mask shards =
    let m = Array.make nshards false in
    List.iter (fun s -> m.(s) <- true) shards;
    m
  in
  { nshards; map_version = version; owned = mask owned; frozen = mask frozen }

(* The one function that turns a journal record into the node's memory
   — the dup table, shard ownership and the degraded latch — with no
   I/O.  The live node applies each record after appending it (a [Mut]
   once its store write succeeded) and [recover] applies the same
   records in order, so a recovered node knows what its live self knew. *)
let apply t = function
  | Journal.Mut { txn; shard; done_; _ } ->
      Option.iter (fun txn -> dup_add t ~order:Fun.id ~shard txn done_) txn
  | Journal.Cancel { degraded } -> if degraded then t.degraded <- true
  | Journal.Snapshot { s_dups; s_sharding; s_degraded } ->
      (* Clients are inserted in list order, journaled longest ago
         first; a snapshot that lists them by ascending id reads as ids
         journaled in that order. *)
      t.dups <- [];
      List.iter
        (fun (client, entries) ->
          dup_insert t client
            (List.map
               (fun (seq, shard, done_) ->
                 { seq; shard; resp = resp_of_done done_ })
               entries))
        s_dups;
      t.sharding <-
        Option.map
          (fun (nshards, version, owned, frozen) ->
            sharding_of ~nshards ~version ~owned ~frozen)
          s_sharding;
      t.degraded <- s_degraded
  | Journal.Enable { nshards; version; owned } ->
      t.sharding <- Some (sharding_of ~nshards ~version ~owned ~frozen:[])
  | Journal.Map_version version ->
      with_sharding t (fun sh -> sh.map_version <- version)
  | Journal.Freeze shard ->
      with_sharding t (fun sh -> sh.frozen.(shard) <- true)
  | Journal.Unfreeze shard ->
      with_sharding t (fun sh -> sh.frozen.(shard) <- false)
  | Journal.Adopt shard ->
      with_sharding t (fun sh ->
          sh.owned.(shard) <- true;
          sh.frozen.(shard) <- false)
  | Journal.Release shard ->
      with_sharding t (fun sh ->
          sh.owned.(shard) <- false;
          sh.frozen.(shard) <- false);
      (* Its entries leave with the shard; a client whose last entry
         leaves frees its slot. *)
      t.dups <-
        List.filter_map
          (fun (client, entries) ->
            match List.filter (fun e -> e.shard <> shard) entries with
            | [] -> None
            | entries -> Some (client, entries))
          t.dups
  | Journal.Import { shard; entries } ->
      (* Merge the carried entries with the target's own table, per
         client, keeping the [dup_capacity] highest seqs.  Per-client
         seqs are monotone, so highest = newest: exactly the acks an
         in-flight retry can still ask about.  Putting imports first
         unconditionally, as a [Mut] does, could drop the target's
         freshest entries for its other shards. *)
      let order = List.sort (fun e1 e2 -> Int.compare e2.seq e1.seq) in
      List.iter (fun (txn, done_) -> dup_add t ~order ~shard txn done_) entries

(* ------------------------------------------------------------------ *)
(* Sharding control plane                                              *)

(* A control-plane transition, once its preconditions hold and its own
   store I/O is done.  An append failure latches degraded: the node can
   no longer promise its recovered self would agree with its live self. *)
let commit t r =
  (match Journal.append t.journal r with
  | Ok () -> ()
  | Error _ -> t.degraded <- true);
  apply t r

let enable_sharding t ~nshards ~version ~owned =
  if nshards < 1 then invalid_arg "Node_core.enable_sharding: nshards < 1";
  if List.exists (fun s -> s < 0 || s >= nshards) owned then
    invalid_arg "Node_core.enable_sharding: shard out of range";
  commit t (Journal.Enable { nshards; version; owned })

let set_map_version t version =
  with_sharding t ignore;
  commit t (Journal.Map_version version)

let freeze t ~shard =
  check_shard t shard;
  commit t (Journal.Freeze shard)

let unfreeze t ~shard =
  check_shard t shard;
  commit t (Journal.Unfreeze shard)

let adopt t ~shard =
  check_shard t shard;
  (* Pre-adopt reconcile: any stored keys of [shard] are stale residue —
     an aborted inbound copy, or a release sweep that hit a store error
     after the shard migrated away.  They must be purged before
     ownership flips, or a key meanwhile deleted at the real owner would
     be served and listed here again once this node re-owns the shard.
     A failed purge refuses the adoption: the shard stays un-owned and
     its residue stays hidden. *)
  match sweep_shard t ~shard with
  | Error _ as e -> e
  | Ok () ->
      commit t (Journal.Adopt shard);
      Ok ()

(* Drop ownership of a migrated-away shard: its duplicate-table entries
   leave the table, then its keys leave the store.  Keys a failed sweep
   leaves behind stay hidden while the shard is un-owned, and {!adopt}'s
   pre-own reconcile purges them before this node could ever serve the
   shard again. *)
let release t ~shard =
  check_shard t shard;
  commit t (Journal.Release shard);
  sweep_shard t ~shard

let import_dups t ~shard entries =
  commit t
    (Journal.Import
       {
         shard;
         entries = List.map (fun (txn, resp) -> (txn, resp = P.Done)) entries;
       })

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

(* A mutation, decided before anything durable happens: a put always
   answers [Done]; a delete answers [Done] or [Missing] depending on
   presence. *)
type mutation = M_put of stored | M_del

(* Checkpoint: atomically replace the whole journal with one [Snapshot]
   record.  Only called from quiescent points (after a completed commit,
   or explicitly), where the store is fully materialized — which is what
   makes "replay restarts at the snapshot" sound. *)
let checkpoint t =
  let snap =
    Journal.Snapshot
      {
        s_dups = snapshot_dups t;
        s_sharding = Option.map shard_lists t.sharding;
        s_degraded = t.degraded;
      }
  in
  match Journal.replace_with t.journal [ snap ] with
  | Ok () ->
      t.checkpoints <- t.checkpoints + 1;
      Ok ()
  | Error _ as e -> e

(* A failed auto-checkpoint is not a failed commit: the replace dance is
   crash-atomic, so the previous journal is intact and replay still
   reconstructs the node — the journal just keeps growing until an
   append itself fails (which does refuse the mutation and latch
   degraded). *)
let maybe_checkpoint t =
  if Journal.size t.journal >= t.journal_checkpoint then ignore (checkpoint t)

(* The journaled commit protocol.  Order matters and is the protocol:

     decide resp -> append Mut record (COMMIT) -> apply store write
                 -> apply the record (dup entry) + counters

   A crash before the append loses nothing (the mutation was never
   acknowledged); a crash after it is recovered by replay, which redoes
   the store write and applies the record, from one atomic record.  If
   the store write fails after the append, a [Cancel] record voids the
   Mut (the client got an error, so a retry must re-evaluate, not be
   answered [Done]). *)
let journaled_commit t txn ~shard key m =
  let j = t.journal in
  let decided =
    match m with
    | M_put _ -> Ok P.Done
    | M_del -> (
        match t.store.load key with
        | Ok (Some _) -> Ok P.Done
        | Ok None -> Ok P.Missing
        | Error e -> Error e)
  in
  let io_error = function P.Io _ -> true | _ -> false in
  match decided with
  | Error e -> P.Err e (* read failure: nothing appended, nothing applied *)
  | Ok resp -> (
      let record =
        Journal.Mut
          {
            txn;
            shard;
            key;
            put = (match m with M_put { value; crc } -> Some (value, crc) | M_del -> None);
            done_ = (resp = P.Done);
          }
      in
      match Journal.append j record with
      | Error e ->
          if io_error e then t.degraded <- true;
          P.Err e
      | Ok () -> (
          let written =
            match (m, resp) with
            | M_put stored, _ -> t.store.save key stored
            | M_del, P.Done -> (
                match t.store.remove key with Ok _ -> Ok () | Error e -> Error e)
            | M_del, _ -> Ok () (* Missing: journal-only, no store effect *)
          in
          match written with
          | Ok () ->
              (match resp with P.Done -> t.applied <- t.applied + 1 | _ -> ());
              apply t record;
              maybe_checkpoint t;
              resp
          | Error e ->
              let cancel = Journal.Cancel { degraded = io_error e } in
              ignore (Journal.append j cancel);
              apply t cancel;
              P.Err e))

(* The dedup check runs before everything else: a retry of a mutation
   acknowledged just before the node degraded (or froze the shard for
   migration) must still be answered exactly-once from the table, not
   refused.  Only side-effecting outcomes ([Done]/[Missing]) enter the
   table — caching a failure would answer a future retry with an error
   for a mutation that never happened, instead of re-evaluating it. *)
let mutate t txn key m =
  match dup_lookup t txn with
  | Some resp ->
      t.dup_hits <- t.dup_hits + 1;
      resp
  | None -> (
      match route t key ~mutation:true with
      | Error e -> P.Err e
      | Ok shard ->
          if t.degraded then P.Err P.Read_only
          else journaled_commit t txn ~shard key m)

let handle t req =
  match req with
  | P.Put { key; value; crc; txn } ->
      if not (P.valid_key key) then P.Err P.Bad_key
      else if String.length value > P.max_value_size then P.Err P.Too_large
      else if P.crc32 value <> crc then P.Err P.Bad_crc
      else mutate t txn key (M_put { value; crc })
  | P.Get key -> (
      if not (P.valid_key key) then P.Err P.Bad_key
      else
        match route t key ~mutation:false with
        | Error e -> P.Err e
        | Ok _ -> (
            match t.store.load key with
            | Ok None -> P.Missing
            | Ok (Some { value; crc }) ->
                if P.crc32 value <> crc then P.Err P.Integrity
                else P.Value { value; crc }
            | Error e -> P.Err e))
  | P.Delete { key; txn } ->
      if not (P.valid_key key) then P.Err P.Bad_key
      else mutate t txn key M_del
  | P.List -> (
      match t.store.keys () with
      | Ok ks ->
          (* A sharded node advertises only the keys it serves: keys of a
             released shard may still be mid-deletion if the release hit
             a store error, and must not resurface through [List]. *)
          let ks =
            match t.sharding with
            | None -> ks
            | Some sh ->
                List.filter
                  (fun k ->
                    sh.owned.(Shard_map.shard_of ~nshards:sh.nshards k))
                  ks
          in
          P.Listing (List.sort compare ks)
      | Error e -> P.Err e)
  | P.Ping ->
      P.Pong
        { health = (if t.degraded then P.Degraded else P.Serving); epoch = t.epoch }
  | P.Shutdown ->
      t.shutdown <- true;
      P.Done

(* Byte-level entry point: unseal the transport envelope, decode the
   request, handle it, seal the response — the full request/response
   buffer lifecycle in one place.  With a pool, request and response
   scratch buffers are pool-allocated for the duration and always freed
   (the hp leak VC checks live blocks return to zero); the response is
   built as an iovec and materialized once. *)
let handle_frame t frame =
  let scratch n =
    match t.pool with
    | None -> None
    | Some p -> Bi_ulib.Ualloc.Pool.alloc p n
  in
  let release = function
    | Some off -> (
        match t.pool with
        | Some p -> Bi_ulib.Ualloc.Pool.free p off
        | None -> ())
    | None -> ()
  in
  let req_buf = scratch (Bytes.length frame) in
  Fun.protect ~finally:(fun () -> release req_buf) @@ fun () ->
  match P.unseal frame with
  | None -> None
  | Some (id, body) -> (
      match P.decode_req body ~off:0 with
      | None -> None
      | Some (req, _) ->
          let resp = handle t req in
          let iov = P.seal_iov ~id (P.encode_resp_iov resp) in
          let resp_buf = scratch (Bi_net.Pkt.Iov.length iov) in
          Fun.protect ~finally:(fun () -> release resp_buf) @@ fun () ->
          Some (Bi_net.Pkt.Iov.materialize iov))

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

type recovery = {
  r_records : int;  (** journal records decoded *)
  r_snapshot : bool;  (** replay resumed from a checkpoint snapshot *)
  r_redone : int;  (** store writes re-applied *)
  r_skipped : int;
      (** non-cancelled mutations that wrote nothing: superseded by a
          later mutation of the same key, a [Missing] delete, or a store
          that already matched *)
  r_dup_entries : int;  (** duplicate-table entries restored *)
  r_cancelled : int;  (** committed-then-cancelled mutations skipped *)
  r_store_failures : int;  (** redo writes the store refused (degraded) *)
  r_torn_tail : bool;  (** a damaged journal tail was discarded *)
  r_journal_error : bool;  (** the journal itself was unreadable *)
}

let no_recovery =
  {
    r_records = 0;
    r_snapshot = false;
    r_redone = 0;
    r_skipped = 0;
    r_dup_entries = 0;
    r_cancelled = 0;
    r_store_failures = 0;
    r_torn_tail = false;
    r_journal_error = false;
  }

(* Rebuild the node from its journal: dup table, shard ownership,
   degraded latch, and any store write a crash cut off between the
   commit append and the apply.  Total by design — the two failure modes
   keep the node alive but degraded instead of refusing to start:

   - an unreadable journal latches degraded immediately (with no dup
     table, serving mutations could double-apply a retried op; reads of
     the durable store are still safe);
   - a redo the backing store refuses latches degraded and keeps the dup
     entry — the commit record exists, so the mutation *was*
     acknowledged, and a retry must be answered from the table rather
     than re-evaluated against a store that just failed a write.

   Every record but a cancelled [Mut] goes through [apply], as it did
   live; recovery adds only the store I/O.  Redo needs only the last
   image of each key.  One backward pass, which stops at the last
   [Snapshot], marks each key's last [Mut] that no [Cancel] voids; only
   that [Mut] goes to the store, at its own place in the replay, so an
   [Adopt] or [Release] sweep after it still removes the key.  A restart
   thus costs one store load per key rather than a load and a save per
   record, and recovery never writes a value that is not the key's
   final one.

   Replay is idempotent: a redo is skipped when the store already
   matches the record, so a second recovery of a recovered node changes
   nothing (the cr suite checks this at every crash point, including
   crashes during recovery itself). *)
let recover t =
  match Journal.load t.journal with
  | Error _ ->
      t.degraded <- true;
      { no_recovery with r_journal_error = true }
  | Ok (records, torn) ->
      let arr = Array.of_list records in
      let n = Array.length arr in
      let cancelled i =
        i + 1 < n && match arr.(i + 1) with Journal.Cancel _ -> true | _ -> false
      in
      (* [final.(i)]: record [i] is its key's last non-cancelled [Mut]. *)
      let final = Array.make n false in
      let seen = Hashtbl.create 64 in
      let rec scan i =
        if i < 0 then 0
        else
          match arr.(i) with
          | Journal.Snapshot _ -> i
          | Journal.Mut { key; _ } when not (cancelled i) ->
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                final.(i) <- true
              end;
              scan (i - 1)
          | _ -> scan (i - 1)
      in
      let start = scan (n - 1) in
      let redone = ref 0
      and skipped = ref 0
      and dup_entries = ref 0
      and n_cancelled = ref 0
      and store_failures = ref 0 in
      let wrote = function
        | Ok _ -> incr redone
        | Error _ ->
            t.degraded <- true;
            incr store_failures
      in
      let redo_put key (value, crc) =
        let desired = { value; crc } in
        match t.store.load key with
        | Ok (Some cur) when cur = desired -> incr skipped
        | _ ->
            (* absent, stale, or unreadable (a crash between a save's
               truncate and its write leaves an empty file, which loads
               as [No_crc]): rewrite *)
            wrote (t.store.save key desired)
      in
      (* A [Missing] delete found the key absent when it committed.  As
         the key's last [Mut], nothing journaled after it writes the key,
         and recovery writes only final values, so the key is still
         absent (or swept): the delete stays a no-op. *)
      let redo_del key ~done_ =
        if not done_ then incr skipped
        else
          match t.store.load key with
          | Ok None -> incr skipped
          | _ -> wrote (t.store.remove key)
      in
      for i = start to n - 1 do
        match arr.(i) with
        | Journal.Mut _ when cancelled i -> incr n_cancelled
        | r -> (
            apply t r;
            match r with
            | Journal.Mut { txn; key; put; done_; _ } ->
                (if not final.(i) then incr skipped
                 else
                   match put with
                   | Some stored -> redo_put key stored
                   | None -> redo_del key ~done_);
                if txn <> None then incr dup_entries
            | Journal.Adopt shard | Journal.Release shard -> (
                (* The transition happened live: a failed sweep latches
                   degraded instead of refusing it. *)
                match sweep_shard t ~shard with
                | Ok () -> ()
                | Error _ -> t.degraded <- true)
            | _ -> ())
      done;
      {
        r_records = n;
        r_snapshot =
          (n > 0
          && match arr.(start) with Journal.Snapshot _ -> true | _ -> false);
        r_redone = !redone;
        r_skipped = !skipped;
        r_dup_entries = !dup_entries;
        r_cancelled = !n_cancelled;
        r_store_failures = !store_failures;
        r_torn_tail = torn;
        r_journal_error = false;
      }

(* ------------------------------------------------------------------ *)
(* Stores                                                              *)

(* Fault-site contract (see {!Bi_fault.Fault_plan}): exactly one decision
   is consumed per attempted state-changing write — every [save], and
   every [remove] of a present key.  A [remove] of an absent key changes
   nothing and consumes nothing, so a scripted plan's site numbering
   stays aligned with the writes an observer can see. *)
let mem_store ?write_faults () =
  let tbl : (string, stored) Hashtbl.t = Hashtbl.create 16 in
  let fault () =
    match write_faults with
    | None -> false
    | Some plan -> Bi_fault.Fault_plan.next plan <> Bi_fault.Fault_plan.Pass
  in
  {
    load = (fun k -> Ok (Hashtbl.find_opt tbl k));
    save =
      (fun k v ->
        if fault () then Error (P.Io "injected write failure")
        else begin
          Hashtbl.replace tbl k v;
          Ok ()
        end);
    remove =
      (fun k ->
        if not (Hashtbl.mem tbl k) then Ok false
        else if fault () then Error (P.Io "injected write failure")
        else begin
          Hashtbl.remove tbl k;
          Ok true
        end);
    keys = (fun () -> Ok (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []));
  }

let mem_contents s =
  match s.keys () with
  | Error _ -> []
  | Ok ks ->
      List.filter_map
        (fun k ->
          match s.load k with
          | Ok (Some { value; _ }) -> Some (k, value)
          | _ -> None)
        (List.sort compare ks)

(* The stores' on-disk format: one file per key under [/blocks], the
   value's CRC-32 as a 4-byte little-endian header, then the value.  A
   save is one whole-file write, which the filesystem commits as one
   transaction, so a crash leaves the old file, an empty one or the new
   one: never a value without its checksum. *)
let blocks_dir = "/blocks"
let key_path key = blocks_dir ^ "/" ^ key
let header_bytes = 4

let file_store (files : Files.t) =
  {
    load =
      (fun key ->
        match files.read (key_path key) with
        | Error e -> Error e
        | Ok None -> Ok None
        | Ok (Some data) ->
            let n = String.length data - header_bytes in
            if n < 0 then Error P.No_crc
            else
              Ok
                (Some
                   {
                     value = String.sub data header_bytes n;
                     crc = String.get_int32_le data 0;
                   }));
    save =
      (fun key { value; crc } ->
        let n = String.length value in
        let b = Bytes.create (header_bytes + n) in
        Bytes.set_int32_le b 0 crc;
        Bytes.blit_string value 0 b header_bytes n;
        files.write (key_path key) (Bytes.unsafe_to_string b));
    remove = (fun key -> files.remove (key_path key));
    keys = (fun () -> files.list blocks_dir);
  }

let fs_store fs =
  (match Fs.mkdir fs blocks_dir with Ok () | Error _ -> ());
  file_store (Files.of_fs fs)

(* A node core fronted by a bounded fair admission queue — the overload
   policy the `wl` suite verifies.  [submit] either queues the request or
   sheds it with [Err Overloaded] *before* any dispatch to [handle]: a
   shed request never reaches the store, the duplicate table, or the
   degraded-mode latch, which is the whole point — shedding must not be a
   third, half-applied outcome.  [serve] dispatches up to a service
   budget's worth of queued requests in admission (round-robin) order. *)
module Queued = struct
  type core = t

  type nonrec t = {
    node : core;
    q : (int * P.req) Admission.t; (* (request id, request) per client *)
    mutable served : int;
  }

  let create ?per_client ~capacity node =
    { node; q = Admission.create ?per_client ~capacity (); served = 0 }

  let node t = t.node

  let submit t ~client ~id req =
    if Admission.offer t.q ~client (id, req) then None
    else Some (P.Err P.Overloaded)

  let serve ?(max_requests = max_int) t =
    let rec go n acc =
      if n >= max_requests then List.rev acc
      else
        match Admission.take t.q with
        | None -> List.rev acc
        | Some (client, (id, req)) ->
            let resp = handle t.node req in
            t.served <- t.served + 1;
            go (n + 1) ((client, id, resp) :: acc)
    in
    go 0 []

  let queue_length t = Admission.length t.q
  let high_water t = Admission.high_water t.q
  let admitted t = Admission.admitted t.q
  let shed t = Admission.shed t.q
  let served t = t.served
  let capacity t = Admission.capacity t.q
  let invariants_ok t = Admission.check_invariants t.q
end
