(** Experiment drivers: one entry point per table/figure in the paper.

    Each function regenerates its artifact and prints it (data rows plus
    an ASCII rendition of the plot).  [all] runs everything in the
    paper's order.  See EXPERIMENTS.md for paper-vs-measured notes. *)

val table1 : Format.formatter -> unit
val table2 : Format.formatter -> unit

val fig1a : Format.formatter -> unit
(** Discharge all 220 page-table VCs, print the verification-time CDF,
    the total and the maximum (paper: total ~40 s, max ~11 s on SMT). *)

type latency_point = {
  cores : int;
  unverified_us : float;
  verified_us : float;
}

val map_latency : unit -> latency_point list
(** The Figure 1b sweep (also used by the Bechamel benches). *)

val unmap_latency : unit -> latency_point list

val fig1b : Format.formatter -> unit
val fig1c : Format.formatter -> unit

val ratio : Format.formatter -> unit
(** Proof-to-code ratio against the paper's comparison row. *)

val measured_apply_cycles : verified:bool -> int
(** Per-operation replica-apply cost in simulated cycles, derived from
    the real implementation's memory-access counts (loads and stores on
    {!Bi_hw.Phys_mem} during steady-state map operations). *)
