(** Cycle-cost model for the simulated multicore machine.

    The paper's latency figures (1b, 1c) were measured on a 28-core,
    2-NUMA-node testbed; this container has 2 CPUs, so the reproduction
    runs those experiments on a deterministic simulator whose timing comes
    from this model.  The constants are order-of-magnitude costs for a
    ~2.5 GHz x86 server: what matters for reproducing the figures' shape is
    the {e structure} — shared-cache-line transfers and serialized combiner
    execution grow with core count; local work does not. *)

type t = {
  ghz : float;  (** Core frequency, cycles per nanosecond. *)
  local_dram : int;  (** Load from local-node DRAM. *)
  cacheline_transfer : int;
      (** Fetch a line exclusively owned by another core. *)
  cas_success : int;  (** Uncontended compare-and-swap. *)
  cas_retry : int;  (** One failed CAS attempt under contention. *)
  ipi : int;  (** Deliver an inter-processor interrupt. *)
  tlb_invlpg : int;  (** Local [invlpg] instruction. *)
}

val default : t
(** The model used by the benchmarks. *)

val cycles_to_us : t -> int -> float
(** Convert a cycle count to microseconds. *)

val cas_acquire_cost : t -> contenders:int -> int
(** Expected cycles to win a CAS on a line contended by [contenders] cores:
    one transfer plus on average one retry per other contender (each retry
    re-fetches the line). *)

val shootdown_cost : t -> cores:int -> int
(** TLB shootdown: IPI broadcast to the other [cores - 1] cores, each
    performing a local invalidation, initiator waits for all acks. *)
