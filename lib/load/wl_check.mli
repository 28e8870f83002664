(** The [wl] verification suite: verified admission control under
    million-client load.

    Where the rs/sh suites subject the store to adversarial {e faults},
    this suite subjects it to adversarial {e load}, on the same
    {!Bi_core.Vtime} scheduler and {!Bi_app.Sim_world} transport, and
    discharges executably:

    - determinism — workload traces and whole engine summaries are pure
      functions of (config, seed), compared bit-for-bit;
    - statistical soundness — Zipf top-k frequencies vs the analytic
      mass function across seeds, exact burst duty cycle, heavy-tail
      p99/p50 inside the analytic band;
    - the {!Bi_core.Stats.Reservoir} sketch agrees exactly with
      [Stats.percentile] below capacity and within bounded error on
      seeded million-sample streams;
    - the admission queue's memory is bounded at all times, FIFO per
      client, round-robin across clients, per-client capped, and its
      counters conserve (offered = admitted + shed, admitted = taken +
      queued) under sampled adversarial schedules;
    - shed requests are never half-applied, and shed + retry through
      {!Bi_app.Resilient_client} remains exactly-once (acked effective
      mutations = store applies) under pass/drop/duplicate adversaries;
    - no client starves under sustained overload, flooding neighbours
      included;
    - per-key linearizability holds under shedding composed with four
      fault families × three seeds;
    - and two mutation self-checks: a queue that half-applies shed
      requests and an unfair queue that starves a victim are both caught
      by the properties above. *)

val vcs : unit -> Bi_core.Vc.t list

(** {1 Bench: the capacity-planning artifact} *)

type bench_row = {
  label : string;
  admission : bool;
  load_pct : int;  (** Offered load as % of nominal service capacity. *)
  s : Engine.summary;
}

val sweep_points : int list
(** Offered-load percentages swept by {!bench_sweep}. *)

val bench_sweep : ?clients:int -> ?nodes:int -> unit -> bench_row list
(** Throughput/latency vs offered load at each of {!sweep_points}, with
    and without admission control — 10^5 simulated clients by default.
    The knee: past 100%, the no-admission arm's queue and tail latency
    grow without bound while the admission arm sheds and stays flat. *)

val bench_headline : unit -> bench_row
(** One million simulated clients, bursty arrivals, four sharded nodes,
    admission on. *)
