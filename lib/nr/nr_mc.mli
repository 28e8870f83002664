(** NR's own code on the model checker.

    Every world runs {!Log.Make}, {!Rwlock.Make} or {!Nr.Make_on} over
    {!Cell.Explore} — the functor bodies {!Nr.Make} runs on domains — so
    what the explorer proves is a property of the code NR runs:

    - the {!Log} append — reserve by CAS {e before} publishing, so
      concurrent appends land at distinct indices — and its circular
      reuse: two replicas of one thread over a one-slot log, where the
      second append must reclaim by replaying the other replica, and no
      entry is overwritten before every replica has replayed it;
    - the {!Rwlock} word — writers exclude readers and each other, and
      the lock drains;
    - the flat combiner of one replica with 2–3 threads, read path
      included, whose every explored history must pass
      {!Bi_core.Linearizability} against the sequential counter.

    The two seeded mutations are one cell instance whose every
    read-modify-write is a read followed by a write: the whole protocol
    over it ([mc/mutation/log-split-reserve]) and the rwlock over it
    ([mc/mutation/rwlock-nonatomic-release]) must both be caught.  Part
    of the [mc] verify suite. *)

val vcs : unit -> Bi_core.Vc.t list

val batched_fc_vcs : unit -> Bi_core.Vc.t list
(** [hp/mc/batched-fc/*]: the [mc/nr/fc] two-thread worlds, built by the
    same code, with {!Nr.Batched} replay instead of {!Nr.Sequential}, so
    each replay path is explored once.  Part of the [hp] suite. *)

val explore : string -> Bi_core.Explore.result
(** [explore id] explores the world behind the non-mutant VC [id]
    ([mc/nr/*] or [hp/mc/batched-fc/*]): its schedule census, for tests.
    Raises [Invalid_argument] for any other id. *)
