(** The [sh] verify suite: the sharded block store and its live
    migrations.

    The same {!Bi_core.Vtime} scheduler and {!Sim_world} as the [rs]
    suite drive sharded {!Node_core}s behind {!Bi_fault.Faulty_link}
    channels.  The obligations:

    - {!Shard_map} laws: hash range, key→shard→node consistency,
      single-shard reassignment, version monotonicity, initial balance;
    - [Wrong_shard] protocol totality: round-trips, never retryable
      (the {e router} handles it by refreshing the map, the retry loop
      must not), distinct from every other error;
    - node-side ownership: unsharded nodes serve everything; refusals
      quote the map version; frozen shards refuse mutations but serve
      reads; release drops keys and duplicate entries; the
      duplicate-table check runs {e before} the shard check, so retries
      of acked mutations are answered even mid-migration;
    - routing: operations land on the map's owner, [Wrong_shard]
      triggers a bounded refresh-and-reroute, list scatter-gathers;
    - migration: no key loss, bounded write pause, reads served
      throughout the copy, and exactly-once for mutations whose retry
      lands on the {e new} owner — the carried duplicate table is the
      load-bearing step;
    - linearizability of concurrent client histories across a live
      migration under pass / drop / duplicate / mixed fault families and
      under crash-restart and epoch-fence of an uninvolved node, three
      seeds each, with per-shard ballast keys proving no key loss;
    - mutation self-checks: flipping the map before the copy completes
      loses reads and is caught; dropping the duplicate table on migrate
      double-applies a retried mutation and is caught; the whole
      simulation is replay-deterministic. *)

val vcs : unit -> Bi_core.Vc.t list
