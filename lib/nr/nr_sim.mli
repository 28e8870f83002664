(** Simulated-multicore model of NR operation latency.

    Reproduces the shape of the paper's Figures 1b and 1c on a 2-CPU
    container by modelling, on the {!Bi_core.Vtime} event heap, the
    structure that produces those curves on real hardware:

    - each virtual core issues operations closed-loop into its NUMA node's
      flat combiner;
    - a combiner batch pays one contended log reservation (CAS against the
      other nodes' combiners), then replays {e every} outstanding log entry
      into the local replica — so per-operation latency grows with the
      number of concurrently-writing cores, which is the linear trend in
      the figures;
    - per-operation apply cost is supplied by the caller, measured from the
      {e real} page-table implementation's memory-access counts, so the
      verified and unverified variants are compared by their actual work;
    - optional per-batch TLB shootdown (unmap, Figure 1c).

    Determinism: all jitter comes from a seeded generator. *)

type config = {
  cores : int;  (** Total virtual cores, split evenly across nodes. *)
  numa_nodes : int;  (** Replica count. *)
  ops_per_core : int;  (** Closed-loop operations per core. *)
  apply_cycles : int;  (** Cycles to replay one log entry into a replica. *)
  local_cycles : int;  (** Per-op work outside the combiner (syscall entry,
                           argument handling). *)
  shootdown : bool;  (** Charge one batched TLB shootdown per combine. *)
  cost : Bi_hw.Cost_model.t;
  jitter : float;  (** Relative noise amplitude, e.g. [0.03]. *)
  seed : string;  (** Jitter seed. *)
}

type result = {
  mean_latency_us : float;
  p50_us : float;
  p99_us : float;
  throughput_mops : float;  (** Completed ops per virtual microsecond. *)
  mean_batch : float;  (** Mean combiner batch size. *)
}

val default_config : config
(** 8 cores, 2 nodes, 200 ops/core, no shootdown, 3% jitter. *)

val run : config -> result
(** Run the closed-loop experiment to completion and aggregate. *)

val sweep : config -> cores:int list -> (int * result) list
(** Re-run with each core count (other parameters fixed). *)
