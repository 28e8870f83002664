(** Per-node redo journal: crash-durable exactly-once state.

    {!Node_core}'s commit protocol appends one {!record} per mutation
    {e before} applying the store write (append = commit point), so a
    restart can rebuild the duplicate table, shard ownership, and the
    degraded latch, and redo any store write a crash cut off between
    append and apply.  The [cr] verify suite drives {!Bi_fs.Crash_explore}
    through every write/flush boundary of both the commit and recovery.

    Framing is [varint length | u32 CRC-32 | body] per record; stream
    decoding ({!load}) is total and stops at the first damaged record
    (torn tail — only ever the unacknowledged record being appended),
    while single-record decoding is strict (truncations and trailing
    bytes rejected). *)

type snapshot = {
  s_dups : (int * (int * int * bool) list) list;
      (** [(client, [(seq, shard, done)])], clients journaled longest
          ago first, entries newest-first.  A snapshot that lists
          clients by ascending id reads as ids journaled in that
          order. *)
  s_sharding : (int * int * int list * int list) option;
      (** [(nshards, map_version, owned, frozen)]. *)
  s_degraded : bool;
}

type record =
  | Mut of {
      txn : Protocol.txn option;
      shard : int;
      key : string;
      put : (string * int32) option;
          (** [Some (value, crc)] for a put; [None] for a delete. *)
      done_ : bool;  (** decided response: [true] = [Done], [false] = [Missing] *)
    }
  | Cancel of { degraded : bool }
      (** The preceding [Mut]'s store apply failed: its effects are void. *)
  | Snapshot of snapshot
      (** Checkpoint — replay restarts here; the store is authoritative
          for everything before it. *)
  | Enable of { nshards : int; version : int; owned : int list }
  | Adopt of int
  | Release of int
  | Freeze of int
  | Unfreeze of int
  | Map_version of int
  | Import of { shard : int; entries : (Protocol.txn * bool) list }

(** {2 Record serde} *)

val encode_record : record -> bytes
(** Unframed: tag byte + Serde body. *)

val decode_record : bytes -> record option
(** Strict inverse of {!encode_record}: total, and [None] on any
    truncation, trailing bytes, or unknown tag. *)

val frame_record : record -> bytes
(** [encode_record] wrapped in the length + CRC stream framing. *)

val decode_stream : bytes -> record list * bool
(** Total: the longest decodable record prefix, plus [true] when a torn
    or corrupt tail was discarded. *)

(** {2 Sinks} *)

type sink = {
  sink_read : unit -> (bytes, Protocol.err) result;
      (** Whole journal; [Ok empty] when absent. *)
  sink_append : bytes -> (unit, Protocol.err) result;  (** Durable append. *)
  sink_replace : bytes -> (unit, Protocol.err) result;
      (** Crash-atomic whole-journal replacement (checkpoints). *)
}

val mem_sink : ?faults:Bi_fault.Fault_plan.t -> unit -> sink * Buffer.t
(** In-memory sink for the simulated worlds; the buffer outlives any
    node built over it, which is what makes a simulated restart durable.
    An append adds to the buffer in amortised O(1).
    With [faults], exactly one decision is consumed per sink operation
    (read/append/replace, in call order); non-[Pass] fails it with
    [Err (Io _)]. *)

val file_sink : Files.t -> path:string -> sink
(** The journal as the file [path].  Appends are {!Files.append}s;
    [sink_replace] uses a two-file dance (write and sync [path.new],
    unlink [path], rename, sync) whose interruption at any
    filesystem-transaction boundary is settled by the next [sink_read]
    or [sink_replace] — the cr suite crash-explores both.  A replace
    that fails with an error also makes the next append settle first. *)

val fs_sink : Bi_fs.Fs.t -> path:string -> sink
(** {!file_sink} over {!Files.of_fs}: the journal on a directly mounted
    filesystem, as the cr suite explores it. *)

(** {2 The journal handle} *)

type t

val create : sink -> t
val size : t -> int
(** Bytes in the journal as of the last load/append/replace — the
    checkpoint trigger compares this against its threshold. *)

val append : t -> record -> (unit, Protocol.err) result
val load : t -> (record list * bool, Protocol.err) result
(** All records plus the torn-tail flag; also refreshes {!size}. *)

val replace_with : t -> record list -> (unit, Protocol.err) result
