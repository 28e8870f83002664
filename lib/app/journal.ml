(* Per-node redo journal: the durable half of the exactly-once machinery.

   The backing store is already durable (each save/remove lands in the
   WAL-backed filesystem), but everything that makes the store *safe to
   serve* — the duplicate table, shard ownership, the degraded latch —
   dies with the process.  The journal commits each mutation's store
   write and its dup-table entry as one atomic record: append-then-apply,
   so the record *is* the commit point, and recovery replays the log to
   rebuild the in-memory state and redo any store write the crash cut
   off between append and apply.

   Record framing is [varint body-length | u32 CRC-32 | body]; each body
   is a tag byte plus a Serde-encoded payload.  Decoding is total and
   prefix-tolerant at the *stream* level (a torn tail is reported, not
   fatal) and strict at the *record* level (a truncated or trailing-byte
   body is rejected), so a crash mid-append can only ever cost the
   record being appended — which was by definition not yet acknowledged.

   Sinks abstract where the bytes live: an in-memory buffer for the
   simulated rs worlds, and one file sink written over {!Files} for
   everything on a filesystem — the crash-exploration suite runs it on
   a directly mounted [Bi_fs.Fs] ({!Files.of_fs}), netd on the kernel
   syscall surface ({!Files.of_usys}), so the checkpoint dance cr
   explores is the one netd runs.  [replace] — used by checkpoints —
   must be atomic under crash; the file sink gets that from a two-file
   dance whose every step is a filesystem transaction:

     1. write + sync the snapshot to [path.new]   (journal = path)
     2. unlink [path]                             (journal = path.new,
                                                   complete by step 1)
     3. rename [path.new] -> [path], sync         (journal = path)

   [read] and [replace] first settle an interrupted dance: if [path]
   exists, any [path.new] is leftover garbage (crash before step 2) and
   is discarded; if only [path.new] exists the dance passed its point
   of no return (the snapshot was fully written and synced before the
   unlink) and the rename is completed.  Appends do not settle — after
   the settle on load, only a failed replace can leave the dance
   interrupted, and the append after one settles first. *)

module P = Protocol
module S = Bi_ulib.Serde
module FP = Bi_fault.Fault_plan

(* ------------------------------------------------------------------ *)
(* Records                                                             *)

type snapshot = {
  s_dups : (int * (int * int * bool) list) list;
      (** [(client, [(seq, shard, done)])], clients sorted ascending,
          entries newest-first — the whole duplicate table. *)
  s_sharding : (int * int * int list * int list) option;
      (** [(nshards, map_version, owned, frozen)]. *)
  s_degraded : bool;
}

type record =
  | Mut of {
      txn : P.txn option;
      shard : int;
      key : string;
      put : (string * int32) option;  (** [Some (value, crc)]; [None] = delete *)
      done_ : bool;  (** the decided response: [Done] or [Missing] *)
    }
  | Cancel of { degraded : bool }
      (** The preceding [Mut]'s store apply failed: its effects are void
          (no dup entry, no redo) and the node latched degraded if the
          failure was an I/O error. *)
  | Snapshot of snapshot
      (** Checkpoint: everything before this record is materialized in
          the store; replay restarts from here. *)
  | Enable of { nshards : int; version : int; owned : int list }
  | Adopt of int
  | Release of int
  | Freeze of int
  | Unfreeze of int
  | Map_version of int
  | Import of { shard : int; entries : (P.txn * bool) list }

(* ------------------------------------------------------------------ *)
(* Serde                                                               *)

let txn_c : P.txn option S.t =
  S.map
    (Option.map (fun (client, seq) -> { P.client; seq }))
    (Option.map (fun { P.client; seq } -> (client, seq)))
    S.(option (pair varint varint))

let mut_c = S.(pair txn_c (pair varint (pair string (pair (option (pair string u32)) bool))))
let snap_c =
  S.(
    pair
      (list (pair varint (list (triple varint varint bool))))
      (pair (option (pair (pair varint varint) (pair (list varint) (list varint)))) bool))
let enable_c = S.(triple varint varint (list varint))
let import_c = S.(pair varint (list (pair (pair varint varint) bool)))

let tag = function
  | Mut _ -> 0
  | Cancel _ -> 1
  | Snapshot _ -> 2
  | Enable _ -> 3
  | Adopt _ -> 4
  | Release _ -> 5
  | Freeze _ -> 6
  | Unfreeze _ -> 7
  | Map_version _ -> 8
  | Import _ -> 9

(* Tag byte plus payload, appended to [b]. *)
let encode_body b r =
  S.encode_to b S.u8 (tag r);
  match r with
  | Mut { txn; shard; key; put; done_ } ->
      S.encode_to b mut_c (txn, (shard, (key, (put, done_))))
  | Cancel { degraded } -> S.encode_to b S.bool degraded
  | Snapshot { s_dups; s_sharding; s_degraded } ->
      S.encode_to b snap_c
        ( s_dups,
          ( Option.map (fun (n, v, o, f) -> ((n, v), (o, f))) s_sharding,
            s_degraded ) )
  | Enable { nshards; version; owned } ->
      S.encode_to b enable_c (nshards, version, owned)
  | Adopt s | Release s | Freeze s | Unfreeze s | Map_version s ->
      S.encode_to b S.varint s
  | Import { shard; entries } ->
      S.encode_to b import_c
        ( shard,
          List.map (fun ({ P.client; seq }, d) -> ((client, seq), d)) entries )

let encode_record r =
  let b = Buffer.create 64 in
  encode_body b r;
  Buffer.to_bytes b

(* The record whose body is exactly [buf.[off .. stop)].  Serde decoders
   read only the bytes they consume, so decoding in place and requiring
   the decoder to stop at [stop] accepts exactly the bodies that decode
   on their own. *)
let decode_at buf ~off ~stop =
  let exact c =
    match S.decode_prefix c buf ~off:(off + 1) with
    | Some (v, next) when next = stop -> Some v
    | Some _ | None -> None
  in
  if off >= stop then None
  else
    match Bytes.get_uint8 buf off with
    | 0 ->
        Option.map
          (fun (txn, (shard, (key, (put, done_)))) ->
            Mut { txn; shard; key; put; done_ })
          (exact mut_c)
    | 1 -> Option.map (fun degraded -> Cancel { degraded }) (exact S.bool)
    | 2 ->
        Option.map
          (fun (s_dups, (sharding, s_degraded)) ->
            Snapshot
              {
                s_dups;
                s_sharding =
                  Option.map (fun ((n, v), (o, f)) -> (n, v, o, f)) sharding;
                s_degraded;
              })
          (exact snap_c)
    | 3 ->
        Option.map
          (fun (nshards, version, owned) -> Enable { nshards; version; owned })
          (exact enable_c)
    | 4 -> Option.map (fun s -> Adopt s) (exact S.varint)
    | 5 -> Option.map (fun s -> Release s) (exact S.varint)
    | 6 -> Option.map (fun s -> Freeze s) (exact S.varint)
    | 7 -> Option.map (fun s -> Unfreeze s) (exact S.varint)
    | 8 -> Option.map (fun s -> Map_version s) (exact S.varint)
    | 9 ->
        Option.map
          (fun (shard, entries) ->
            Import
              {
                shard;
                entries =
                  List.map
                    (fun ((client, seq), d) -> ({ P.client; seq }, d))
                    entries;
              })
          (exact import_c)
    | _ -> None

let decode_record buf = decode_at buf ~off:0 ~stop:(Bytes.length buf)

let crc_of buf ~off ~len = P.crc32_iov [ Bi_net.Pkt.Iov.slice ~off ~len buf ]

(* Frames [rs] back to back in one buffer, each as [varint body-length |
   u32 CRC | body]: a body is encoded once, and its CRC is computed over
   the framed bytes in place and patched into its header. *)
let frame_records rs =
  let out = Buffer.create 256 and body = Buffer.create 64 in
  let crcs =
    List.map
      (fun r ->
        Buffer.clear body;
        encode_body body r;
        S.encode_to out S.varint (Buffer.length body);
        let at = Buffer.length out in
        Buffer.add_int32_be out 0l;
        Buffer.add_buffer out body;
        (at, Buffer.length body))
      rs
  in
  let b = Buffer.to_bytes out in
  List.iter
    (fun (at, len) -> Bytes.set_int32_be b at (crc_of b ~off:(at + 4) ~len))
    crcs;
  b

let frame_record r = frame_records [ r ]

(* Total: whatever the bytes, the answer is the longest decodable record
   prefix plus a torn-tail flag.  A bad length, a short body, a CRC
   mismatch, or an undecodable body all stop the scan — everything after
   the first damage is discarded, which is exactly the prefix-crash
   semantics the append path is designed around.  Bodies are checked and
   decoded where they lie. *)
let decode_stream buf =
  let len = Bytes.length buf in
  let rec go off acc =
    if off >= len then (List.rev acc, false)
    else
      match S.decode_prefix S.varint buf ~off with
      | None -> (List.rev acc, true)
      | Some (blen, off) -> (
          match S.decode_prefix S.u32 buf ~off with
          | None -> (List.rev acc, true)
          | Some (crc, off) ->
              if blen < 0 || off + blen > len then (List.rev acc, true)
              else if crc_of buf ~off ~len:blen <> crc then (List.rev acc, true)
              else
                match decode_at buf ~off ~stop:(off + blen) with
                | None -> (List.rev acc, true)
                | Some r -> go (off + blen) (r :: acc))
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

type sink = {
  sink_read : unit -> (bytes, P.err) result;
  sink_append : bytes -> (unit, P.err) result;
  sink_replace : bytes -> (unit, P.err) result;
}

(* Fault-site contract: with [faults], exactly one decision is consumed
   per sink operation (read, append, or replace), in call order; any
   non-[Pass] decision fails that operation with [Err (Io _)].  A
   [Buffer] makes an append amortised O(1) in the journal's size. *)
let mem_sink ?faults () =
  let buf = Buffer.create 256 in
  let fail () =
    match faults with
    | None -> false
    | Some plan -> FP.next plan <> FP.Pass
  in
  let sink =
    {
      sink_read =
        (fun () ->
          if fail () then Error (P.Io "injected journal read failure")
          else Ok (Buffer.to_bytes buf));
      sink_append =
        (fun b ->
          if fail () then Error (P.Io "injected journal append failure")
          else begin
            Buffer.add_bytes buf b;
            Ok ()
          end);
      sink_replace =
        (fun b ->
          if fail () then Error (P.Io "injected journal replace failure")
          else begin
            Buffer.clear buf;
            Buffer.add_bytes buf b;
            Ok ()
          end);
    }
  in
  (sink, buf)

let file_sink (files : Files.t) ~path =
  let tmp = path ^ ".new" in
  let ( let* ) = Result.bind in
  (* Set by a replace that failed part-way, which can leave the journal
     only in [tmp]: the next append settles first, so its record cannot
     start a fresh [path] that a later settle would keep over [tmp]. *)
  let unsettled = ref false in
  (* Settle an interrupted replace; see the module comment. *)
  let settle () =
    let* live = files.exists path in
    let* pending = files.exists tmp in
    let* () =
      if live && pending then Result.map ignore (files.remove tmp)
      else if pending then files.rename ~src:tmp ~dst:path
      else Ok ()
    in
    unsettled := false;
    Ok ()
  in
  {
    sink_read =
      (fun () ->
        let* () = settle () in
        let* data = files.read path in
        Ok (Option.fold ~none:Bytes.empty ~some:Bytes.of_string data));
    sink_append =
      (fun b ->
        let* () = if !unsettled then settle () else Ok () in
        files.append path (Bytes.to_string b));
    sink_replace =
      (fun b ->
        let replaced =
          let* () = settle () in
          let* () = files.write tmp (Bytes.to_string b) in
          let* () = files.sync tmp in
          let* (_ : bool) = files.remove path in
          let* () = files.rename ~src:tmp ~dst:path in
          files.sync path
        in
        unsettled := Result.is_error replaced;
        replaced);
  }

let fs_sink fs ~path = file_sink (Files.of_fs fs) ~path

(* ------------------------------------------------------------------ *)
(* The journal handle                                                  *)

type t = {
  sink : sink;
  mutable size : int;  (** bytes, as of the last load/append/replace *)
}

let create sink = { sink; size = 0 }
let size t = t.size

let append t r =
  let b = frame_record r in
  match t.sink.sink_append b with
  | Ok () ->
      t.size <- t.size + Bytes.length b;
      Ok ()
  | Error _ as e -> e

let load t =
  match t.sink.sink_read () with
  | Error _ as e -> e
  | Ok b ->
      t.size <- Bytes.length b;
      Ok (decode_stream b)

let replace_with t rs =
  let b = frame_records rs in
  match t.sink.sink_replace b with
  | Ok () ->
      t.size <- Bytes.length b;
      Ok ()
  | Error _ as e -> e
