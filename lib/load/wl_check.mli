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
    - and two mutation self-checks, each mutant built around the real
      queue here rather than in it: shed requests written into the store
      anyway, and every arrival submitted as one client with no
      per-client cap (a single FIFO that starves a victim), are both
      caught by the properties above. *)

val vcs : unit -> Bi_core.Vc.t list
