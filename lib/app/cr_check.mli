(** The [cr] verify suite: crash-durable exactly-once.

    {!Node_core}'s journaled commit protocol and {!Node_core.recover}
    under systematic crash exploration ({!Bi_fs.Crash_explore}) at
    every write/flush boundary — of the commit, of the checkpoint dance,
    and of recovery itself — over a journaled node whose store and
    journal share one filesystem on a crash-explored block device.  The
    obligations:

    - journal record serde: round-trips, strict-prefix rejection, decode
      totality under seeded corruption, and torn-stream prefix decoding;
    - commit atomicity: every crash point of a put (new and overwrite),
      a delete (present and journal-only absent), and a size-triggered
      checkpoint recovers to exactly the old or the new observation
      (durable kv + dup table + degraded latch), each exploration at its
      pinned census so coverage regressions are loud;
    - recovery: rebuilds the node from the journal alone, is idempotent
      at every one of its own crash points, redoes committed-unapplied
      writes, skips cancelled commits, discards torn tails, and replays
      snapshots, shard ownership, and imports equivalently to the live
      history;
    - degraded-on-recovery: replay onto a failing store (or an
      unreadable journal) comes up degraded read-only, serving recovered
      reads and answering restored dup hits;
    - exactly-once across restart: retries straddling a crash are
      answered from the recovered table — including re-answering [Done]
      for a delete whose key is gone and [Missing] for a key that has
      since appeared — with nothing re-applied;
    - recovery × migration: recovered and imported dup entries merge by
      highest seq, imports survive a further restart, and exports are
      canonically sorted;
    - mutation self-checks: a store write ahead of the commit record
      (the mutant life saves the value, then hands the node the Put) is
      caught by the explorer; a respawn that skips recovery is caught by
      the exactly-once predicate. *)

val vcs : unit -> Bi_core.Vc.t list
