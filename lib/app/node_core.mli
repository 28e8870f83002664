(** The storage node's request-handling core, factored out of the
    transport so the same code serves netd (over the Usys filesystem and
    a journal file), the simulated nodes of the [rs], [sh] and [wl]
    suites and the load engine (over an in-memory store and journal,
    the store's writes failing on a {!Bi_fault.Fault_plan} schedule
    where a VC asks), and the [cr] suite's nodes on a directly mounted
    {!Bi_fs.Fs}.  Whatever the store and journal sink, every node
    commits a mutation by the one journaled protocol, so a VC over any
    of them checks the commit path netd runs.

    Three mechanisms live here:

    {b Exactly-once mutations.}  A bounded per-client duplicate table
    remembers the response of each recent transaction id.  A retried
    [Put]/[Delete] carrying a [txn] already in the table is answered from
    the table and never re-applied — the rely-guarantee a client retry
    loop needs across its retry boundary.  This holds for the 64 clients
    whose newest journaled request is most recent; an older client's
    retry may re-apply.  The table is written only by applying journal
    records (a hit writes nothing), so a node recovered from its journal
    keeps the same clients as its live self.  Only side-effecting outcomes
    ([Done]/[Missing]) are recorded: a failed mutation was never applied,
    so its retry must be re-evaluated, not answered with a cached error.
    Each entry is tagged with the shard of the key it mutated, so a
    migration can carry exactly the entries that move with the shard
    ({!export_dups}/{!import_dups}).

    {b Degraded read-only mode.}  A backing-store write failure flips the
    node to degraded: mutations are refused with [Err Read_only], reads
    keep being served, and [Pong] reports [Degraded].  The node never
    dies, and never loses an acknowledged write (the failed write was
    never acknowledged).

    {b Shard ownership.}  An unsharded node (the default) serves every
    key.  After {!enable_sharding}, requests for keys outside the node's
    owned shards — and mutations on shards frozen mid-migration — are
    refused with [Err (Wrong_shard v)], where [v] is the shard-map
    version this node last learned; the {!Shard_router} treats that as
    "refresh the map and re-route".  The duplicate-table check still runs
    first: a retry of an already-acknowledged mutation is answered from
    the table even on a frozen or released shard. *)

type stored = { value : string; crc : int32 }

type store = {
  load : string -> (stored option, Protocol.err) result;
      (** [Ok None] when absent. *)
  save : string -> stored -> (unit, Protocol.err) result;
  remove : string -> (bool, Protocol.err) result;
      (** [Ok false] when absent. *)
  keys : unit -> (string list, Protocol.err) result;
}

type t

val create :
  ?pool:Bi_ulib.Ualloc.Pool.t ->
  ?dup_capacity:int ->
  ?epoch:int ->
  ?journal:Journal.t ->
  ?journal_checkpoint:int ->
  store ->
  t
(** [dup_capacity] bounds the entries kept per client (default 8).  The
    table tracks the 64 clients whose newest journaled request is most
    recent (a constant): a client new to a full table evicts the one
    whose newest journaled request is oldest, a retry answered from the
    table moves nothing, a client whose last entry a {!release} prunes
    frees its slot, and a checkpoint keeps the order, so a recovered
    node evicts as its live self would.
    [pool] backs {!handle_frame}'s request/response scratch buffers
    (shared across cores is fine — the worlds are single-domain).

    Every mutation runs the crash-durable commit protocol: decide the
    response, append one {!Journal.Mut} record (the commit point — an
    append failure refuses the mutation and latches degraded), apply the
    store write (a failed write appends a {!Journal.Cancel} and latches
    degraded), then record the dup-table entry; control-plane
    transitions (sharding, imports) are journaled, then applied by the
    same function recovery replays.  When the journal exceeds
    [journal_checkpoint] bytes (default 32 KiB) after a commit, it is
    atomically collapsed to a {!Journal.Snapshot}.

    [journal] is where the records go: netd passes its journal file.
    The default is a fresh in-memory journal, which a caller that keeps
    its sink can recover from ({!Sim_world.restart} does).  The commit
    order has no alternative: the cr suite seeds its store-before-journal
    bug by saving through the store before handing the node the
    request. *)

val handle : t -> Protocol.req -> Protocol.resp
(** Total: every request gets a response.  [Shutdown] answers [Done];
    transports decide what to do with their connection ({!wants_shutdown}
    is sticky). *)

val handle_frame : t -> bytes -> bytes option
(** Byte-level {!handle}: {!Protocol.unseal} the envelope, decode the
    request, handle it, and {!Protocol.seal_iov} the response under the
    same id, materialized once.  [None] if the envelope or request does
    not parse (corrupt frames are dropped, not answered).  Request and
    response scratch buffers come from the node's pool when it has one,
    and are freed before returning — pooled live blocks return to zero
    (the hp leak VC). *)

val wants_shutdown : t -> bool
val degraded : t -> bool
val epoch : t -> int

(** {2 Shard ownership and migration handoff}

    The control-plane surface the migration protocol drives.  Each
    transition is journaled, then applied, so {!recover} rebuilds it.
    {!set_map_version}, {!freeze}, {!unfreeze}, {!adopt} and {!release}
    raise [Invalid_argument] on an unsharded node or an out-of-range
    shard, before anything is journaled. *)

val enable_sharding :
  t -> nshards:int -> version:int -> owned:int list -> unit
(** Join a sharded cluster: serve exactly [owned] of the [nshards]
    hash shards ({!Shard_map.shard_of}), quoting map [version] in
    [Wrong_shard] refusals.  Ownership is durable: a restarted node gets
    it back from its journal by {!recover}. *)

val shard_state : t -> (int * int list * int list) option
(** [(map_version, owned shards, frozen shards)], [None] when
    unsharded. *)

val set_map_version : t -> int -> unit
val freeze : t -> shard:int -> unit
(** Source side of a migration: mutations on [shard] are refused with
    [Wrong_shard] (retries of already-acked mutations still answer from
    the duplicate table); reads are still served so the copy can read
    through the protocol. *)

val unfreeze : t -> shard:int -> unit
(** Abort path: lift a freeze without releasing the shard. *)

val adopt : t -> shard:int -> (unit, Protocol.err) result
(** Target side: begin accepting [shard] (the copy's writes land here
    while the map still routes clients to the source).  Any keys of
    [shard] already in the store are stale residue (an aborted inbound
    copy, or a {!release} sweep that hit a store error) and are purged
    before ownership flips — otherwise a key meanwhile deleted at the
    real owner could be resurrected here.  If the purge fails the
    adoption is refused and the shard stays un-owned. *)

val release : t -> shard:int -> (unit, Protocol.err) result
(** Drain after the map flipped away: drop ownership, prune the shard's
    duplicate-table entries, delete its keys from the store.  The sweep
    is best-effort — every key is attempted and the first store error
    returned; whatever it leaves behind stays hidden ([List] filters
    un-owned shards) until {!adopt}'s reconcile purges it. *)

val export_dups : t -> shard:int -> (Protocol.txn * Protocol.resp) list
(** The duplicate-table entries for mutations on [shard], sorted — the
    exactly-once state that must move with the shard. *)

val import_dups : t -> shard:int -> (Protocol.txn * Protocol.resp) list -> unit
(** Merge carried entries into the table, keeping the [dup_capacity]
    highest seqs per client (per-client seqs are monotone, so highest =
    newest) — an import never evicts a fresher entry the target already
    holds for one of its other shards. *)

val applied : t -> int
(** Mutations actually applied to the store — the exactly-once VCs
    compare this against the number of distinct acknowledged mutations,
    however many times each was retried. *)

val dup_hits : t -> int
(** Retried mutations answered from the duplicate table. *)

val dump_dups : t -> (Protocol.txn * (int * Protocol.resp)) list
(** The whole duplicate table — every shard — as [(txn, (shard, resp))]
    sorted by (client, seq): the deterministic observation the recovery
    and world-determinism VCs compare across restarts. *)

val retire : t -> epoch:int -> t
(** The core of a run whose process has exited, as run [epoch]'s:
    {!epoch} answers [epoch], and {!applied}, {!dup_hits},
    {!checkpoints}, {!degraded} and {!dump_dups} answer as [t]'s, but
    its store and journal are shared constants that fail every call
    with [Err (Io _)], so it holds no I/O handle of the dead process.
    A mutation it is asked to {!handle} is refused without touching
    any disk.  Each call is a new record sharing [t]'s dup table, so
    netd keeps one retired core for a range of identical dead runs and
    hands each run its own copy. *)

(** {2 Crash recovery}

    A restarted node is a fresh {!create} over the durable store and the
    same journal, followed by {!recover}. *)

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
  r_store_failures : int;  (** redo writes the store refused *)
  r_torn_tail : bool;  (** a damaged journal tail was discarded *)
  r_journal_error : bool;  (** the journal itself was unreadable *)
}

val no_recovery : recovery

val recover : t -> recovery
(** Replay the journal from its last snapshot through the function the
    live node applied each record with, which rebuilds the duplicate
    table, shard ownership and the degraded latch; redo any store write
    a crash cut off after its commit record, and sweep again what an
    [Adopt] or [Release] swept.  Only each key's last mutation that no
    [Cancel] voids is redone, at its place in the replay, so a restart
    costs one store load per key, not per record.
    Total — failure modes degrade instead of refusing to start: an
    unreadable journal, or a redo the backing store rejects, latches
    degraded (read-only) while recovered reads keep being served.
    Idempotent: redo is skipped wherever the store already matches, so
    re-recovering changes nothing. *)

val checkpoint : t -> (unit, Protocol.err) result
(** Atomically collapse the journal to one snapshot record.  Must only
    be called at a quiescent point (no commit in flight), where the
    store is fully materialized. *)

val checkpoints : t -> int

val mem_store : ?write_faults:Bi_fault.Fault_plan.t -> unit -> store
(** In-memory store.  [write_faults] follows the {!Bi_fault.Fault_plan}
    site-numbering contract: exactly one decision is consumed per
    attempted state-changing write — every [save], and every [remove] of
    a present key; a [remove] of an absent key consumes none.  Any
    non-[Pass] decision makes that write fail with [Err (Io _)] — the
    injection that drives a node into degraded mode.  Reads never
    fail. *)

val mem_contents : store -> (string * string) list
(** Sorted [(key, value)] snapshot of any store (via [keys] + [load];
    unreadable entries are skipped); the degraded-mode monotonicity VCs
    compare these snapshots across the degradation point. *)

(** {2 On-disk format}

    {!file_store} keeps each key as one file, [/blocks/<key>]: the
    value's CRC-32 as a 4-byte little-endian header, then the value. *)

val blocks_dir : string
(** ["/blocks"]. *)

val key_path : string -> string
(** [/blocks/<key>]. *)

val file_store : Files.t -> store
(** The one-file-per-key store over any {!Files} backend: a save is one
    whole-file {!Files.write} of header and value, a remove one
    {!Files.remove}.  A load answers [Err No_crc] for a file shorter
    than the header (a crash between a save's truncate and its write
    leaves an empty one); a read error is [Err (Io _)].  netd runs it
    over {!Files.of_usys} ([Storage_node.usys_store]), the cr suite over
    {!Files.of_fs}.  The [/blocks] directory must exist. *)

val fs_store : Bi_fs.Fs.t -> store
(** [mkdir /blocks], then {!file_store} over {!Files.of_fs}: the store
    on a directly mounted filesystem — mount one on a
    {!Bi_fault.Faulty_disk} to exercise the read-integrity path under
    bit rot. *)

(** A node core fronted by a bounded fair {!Admission} queue — the
    explicit overload policy the [wl] verify suite proves things about.

    {!Queued.submit} either admits a request into the bounded queue
    (response comes later, from {!Queued.serve}) or sheds it with
    [Err Overloaded] {e before} any dispatch to {!handle}: a shed request
    never touches the store, the duplicate table, or the degraded latch,
    so "shed + client retry under the same txn" composes with the
    exactly-once machinery instead of fighting it.  {!Queued.serve}
    dispatches up to a service budget's worth of queued requests in
    admission (per-client round-robin) order. *)
module Queued : sig
  type core := t
  type t

  val create : ?per_client:int -> capacity:int -> core -> t
  (** [create ~capacity node] bounds the node's request queue at
      [capacity]; [per_client] caps one client's share (default: the whole
      queue).  The wl suite builds its seeded bugs around the queue, not
      in it: a shed request written into the store anyway, and every
      arrival submitted as one client with no [per_client] cap. *)

  val node : t -> core

  val submit : t -> client:int -> id:int -> Protocol.req -> Protocol.resp option
  (** [None] — admitted, the response will come from a later {!serve};
      [Some (Err Overloaded)] — shed, nothing changed. *)

  val serve : ?max_requests:int -> t -> (int * int * Protocol.resp) list
  (** Dispatch up to [max_requests] queued requests (default: drain);
      returns [(client, id, resp)] in dispatch order. *)

  val queue_length : t -> int
  val capacity : t -> int

  val high_water : t -> int
  (** Largest queue length ever observed — the bounded-memory VC asserts
      this never exceeds [capacity] under adversarial load. *)

  val admitted : t -> int
  val shed : t -> int
  val served : t -> int

  val invariants_ok : t -> bool
  (** {!Admission.check_invariants} on the underlying queue. *)
end
