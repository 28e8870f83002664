(** Deterministic million-client workload engine.

    A discrete-event simulation in virtual time: open- or closed-loop
    clients sampled by {!Workload} drive an array of
    {!Bi_app.Node_core.Queued} nodes (sharded when [nodes > 1]).  Each
    node is a single server; dispatch pops the node's admission queue and
    the completion lands a heavy-tailed service time later.  Shed
    submissions are retried by their client with exponential backoff up
    to [retry_max] times.  One (config, seed) pair yields one
    bit-identical {!summary}; latencies are sketched by a
    {!Bi_core.Stats.Reservoir} so memory stays bounded at any client
    count. *)

type mode =
  | Open of { mean_gap : float }
      (** Arrivals at sampled inter-arrival gaps, regardless of
          completions — offered load is [clients / mean_gap] per tick. *)
  | Closed of { think : int }
      (** Each client issues its next op [think] ticks after the previous
          one completes (or is abandoned). *)

type config = {
  clients : int;
  ops_per_client : int;
  mode : mode;
  capacity : int;
      (** Admission queue bound per node; {!no_admission} disables
          shedding (the "without admission control" arm). *)
  per_client : int option;
  nodes : int;
  n_keys : int;
  theta : float;
  service_xm : float;
  service_alpha : float;
  service_cap : float;
  burst : Workload.Burst.t;
  retry_max : int;
  retry_backoff : int;
  put_ratio_pct : int;
  value_size : int;
  ramp : int;
  reservoir : int;
  seed : int64;
}

val no_admission : int
(** A per-node capacity so large nothing is ever shed. *)

val default : config
(** A small, fast, skewed open-loop baseline; override fields as
    needed. *)

type summary = {
  clients : int;
  issued : int;
  attempts : int;
  completed : int;
  shed : int;
  gave_up : int;
  errors : int;
  duration : int;
  throughput : float;
  p50 : float;
  p99 : float;
  p999 : float;
  mean_latency : float;
  max_latency : float;
  max_queue : int;
      (** Max over nodes of the admission queue high-water mark — the
          bounded-memory witness. *)
  total_capacity : int;
  applied : int;
  min_client_completed : int;
      (** The worst-off client's completion count — the starvation
          witness. *)
  invariants_ok : bool;
}

val run : config -> summary
(** Run the simulation to quiescence (every logical op completed or
    abandoned) and summarize.  Deterministic: equal configs give equal
    summaries. *)
