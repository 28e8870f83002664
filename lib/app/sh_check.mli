(** The [sh] verify suite: the sharded block store and its live
    migrations.

    The same {!Bi_core.Vtime} scheduler and {!Sim_world} as the [rs]
    suite drive sharded {!Node_core}s behind {!Bi_fault.Faulty_link}
    channels — with one addition: each node serves at most
    [service_rate] requests per round, so {!bench_stats} can show
    throughput scaling with shard spread.
    The obligations:

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

type bench_point = {
  bp_nodes : int;
  bp_nshards : int;
  bp_ops : int;
  bp_rounds : int;
  bp_ops_per_kround : int;  (** Completed ops per 1000 simulated rounds. *)
}

type bench = {
  points : bench_point list;
      (** Fixed 8-shard keyspace over 1 / 2 / 4 / 8 rate-limited nodes. *)
  mig_rounds : int;  (** Total rounds of the live-migration scenario. *)
  mig_keys_moved : int;
  mig_dups_carried : int;
  mig_pause_rounds : int;  (** Rounds shards spent write-frozen. *)
  mig_wrong_shard_retries : int;
      (** Client re-routes triggered by the migrations. *)
}

val bench_stats : unit -> bench
(** Two fixed scenarios: throughput vs shard spread, and two live shard
    migrations under concurrent client load.  [test_sim]'s "sh
    bench_stats" pins every field; [BENCH_pr7.json] keeps its last
    recorded report. *)
