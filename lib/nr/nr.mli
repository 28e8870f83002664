(** Node replication.

    [Make (DS)] lifts a sequential data structure into a linearizable
    concurrent one, exactly as the paper describes (Section 4.1): the
    structure is {e replicated} per NUMA node; writers funnel through a
    per-replica {e flat combiner} which batches their operations, appends
    the batch to the shared {!Log} with one atomic reservation, and replays
    the log into the local replica; readers take the replica's read lock
    and execute locally once the replica has caught up with the log.

    Replay is {e batched} by default: one combiner pass applies the whole
    pending log window with a single {!Seq_ds.S.apply_batch} call, one
    writer-lock acquisition, and one tail publish.  The [hp] verify suite
    proves batched replay equivalent to the sequential reference replay
    ({!replay} [Sequential]) and checks the erased mode stays bit-identical.

    Linearizability of the result is this reproduction's analogue of the
    IronSync NR proof, checked with {!Bi_core.Linearizability} on one body
    of code, {!Make_on}: on every schedule the [mc/nr] and [hp/mc] VCs
    explore of its {!Cell.Explore} instance, and on timed histories the
    tests record from concurrent domains running {!Make}. *)

type hooks = {
  on_combine : replica:int -> unit;
  on_apply : replica:int -> index:int -> unit;
}
(** Fault-injection hooks called from inside the combiner protocol:
    [on_combine] when a thread becomes the flat combiner for a replica
    (before it gathers requests), [on_apply] before each log entry is
    replayed into a replica (in batched replay, once per entry as the
    window is gathered, before the bulk apply).  A hook that stalls models
    a slow replica or a delayed combiner; linearizability must survive
    anything the hooks do to timing.  Hooks run on the calling domain and
    must be thread-safe. *)

val no_hooks : hooks

type replay = Sequential | Batched
(** Log replay strategy.  [Batched] (the default) applies each pending
    window with one [apply_batch] call and one tail publish; [Sequential]
    is the one-apply-one-publish reference the parity VCs compare
    against. *)

type batch_stats = { batches : int; entries : int; max_batch : int }
(** Per-batch size statistics: [batches] combiner passes appended a
    non-empty batch, totalling [entries] log entries; the largest single
    batch had [max_batch] ops. *)

module Make_on (C : Cell.S) (DS : Seq_ds.S) : sig
  type t

  val create :
    ?replicas:int -> ?threads_per_replica:int -> ?log_capacity:int ->
    ?replay:replay -> ?hooks:hooks -> C.ctx -> t
  (** Defaults: 2 replicas ("NUMA nodes"), 8 threads per replica,
      4096-slot circular log, [Batched] replay, {!no_hooks}.  When the log
      is full, the appending combiner replays every lagging replica (each
      under its own writer lock, one at a time) and reuses the slots they
      have all passed, so the log never runs out and a replica that never
      combines cannot stall the others.  Raises [Invalid_argument] if
      [log_capacity < threads_per_replica]: a combiner's batch must fit. *)

  val execute : t -> thread:int -> DS.op -> DS.ret
  (** Run an operation on behalf of [thread] (in
      [0, replicas * threads_per_replica)).  Mutating ops are combined,
      logged, and applied to every replica (lazily); read-only ops run on
      the thread's local replica after it has caught up with the log.
      Thread-safe across domains; at most one domain may use a given
      [thread] id at a time. *)

  val submit : t -> thread:int -> DS.op -> unit
  (** Publish a mutating request in [thread]'s slot without waiting for a
      response.  With {!kick} and {!drain} this lets a single domain form
      combiner batches of an exact size (the parity VCs and benches rely
      on this determinism).  Raises [Invalid_argument] on read-only ops.
      Same slot-ownership rule as {!execute}. *)

  val kick : t -> replica:int -> bool
  (** Try to become [replica]'s combiner and run one combine pass (gather,
      append, replay).  Returns [false] if another combiner was active. *)

  val drain : t -> thread:int -> DS.ret option
  (** Take [thread]'s pending response, if its submitted op has been
      applied. *)

  val replicas : t -> int
  val threads_per_replica : t -> int

  val log_entries : t -> int
  (** Entries appended so far (mutating ops only). *)

  val combines : t -> int
  (** Combiner passes that appended a non-empty batch.  Empty-handed
      passes (contention losers) are not counted and never append. *)

  val publishes : t -> int
  (** Stores to some replica's log-tail cursor.  Sequential replay
      publishes once per entry per replica; batched replay once per
      non-empty window — the deterministic form of the batching win. *)

  val ghost_checks : t -> int
  (** Ghost blocks executed on the replay path: positive in Checked mode,
      exactly zero in Erased mode (the erasure-is-zero-cost VC). *)

  val batch_stats : t -> batch_stats

  val sync_all : t -> unit
  (** Bring every replica up to the log tail (quiescence; used by tests to
      compare replica states). *)

  val peek : t -> replica:int -> (DS.t -> 'a) -> 'a
  (** Read directly from one replica under its read lock, without syncing.
      Test/debug hook. *)
end
(** Every wait is a {!Cell.S.await}: an [execute] that loses the race to
    combine waits for the combiner flag to clear, then re-checks.  The
    statistics counters are read by nothing in the protocol and stay
    plain [Atomic.t] in every instance. *)

module Make (DS : Seq_ds.S) : module type of Make_on (Cell.Atomic) (DS)
(** The instance NR runs on domains: [create] takes [()]. *)
