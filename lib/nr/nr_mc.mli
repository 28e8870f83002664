(** Model-checked drivers for the node-replication building blocks.

    Three NR mechanisms, transcribed onto {!Bi_core.Explore} with the
    atomicity the real code has (CAS for log reservation and the rwlock
    word, plain reads on the lock-free read path):

    - the {!Log} append protocol — reserve by CAS {e before} publishing,
      so a full log never strands the tail (the pre-fix blind
      fetch-and-add bug is the seeded mutation) — and its circular reuse:
      a slot is written again only after the slowest replica has
      replayed it;
    - the {!Rwlock} word — writers exclude everyone, and a release whose
      read-modify-write is split in two (the second mutation) loses a
      concurrent reader's decrement;
    - a miniature flat-combining replica — requests published in
      per-thread slots, one combiner batches them through the log and
      distributes responses; every explored schedule's history must pass
      {!Bi_core.Linearizability} against the sequential counter.

    Part of the [mc] verify suite. *)

val vcs : unit -> Bi_core.Vc.t list

val log_ring :
  reclaim:(slowest:int -> tail:int -> int) -> Bi_core.Explore.result
(** Explore the circular-log model behind [mc/nr/log/capacity-respected]
    (a one-slot ring, two appenders, one replica replaying behind them)
    with a chosen reclamation rule: an appender that finds the log full
    may move the head to [reclaim ~slowest ~tail], where [slowest] is
    the replica's replayed count.  The suite's rule is [slowest]; any
    rule that can pass it must fail. *)
