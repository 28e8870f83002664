(** VC discharge engine.

    Runs suites of {!Vc.t}, records per-VC wall-clock time, and produces
    the aggregate views the paper evaluates: the verification-time CDF
    (Figure 1a), the total verification time and the single-slowest VC
    (both quoted in Section 5 of the paper).

    VCs are independent pure checks, so discharge runs them on [?jobs]
    OCaml 5 domains: the caller and [jobs - 1] domains spawned for the
    call take VC indices from one atomic counter, and every spawned
    domain is joined before {!discharge} returns.  Results keep the
    input order and are bit-for-bit identical to a sequential run.  A
    per-VC time budget ([?timeout_s]) turns a divergent check into a
    {!Vc.Timeout} outcome instead of a hung suite. *)

type result = { vc : Vc.t; time_s : float; outcome : Vc.outcome }

type report = {
  results : result list;  (** In input order, regardless of [jobs]. *)
  total_time_s : float;
      (** Sum of the per-VC wall times, across all domains (the paper's
          "total verification time").  It is not cpu time: with more
          domains than free cores a VC's wall time includes the time it
          waited for one. *)
  wall_time_s : float;
      (** End-to-end elapsed time of the discharge call; equals
          [total_time_s] (plus scheduling noise) when [jobs = 1]. *)
  max_time_s : float;  (** Slowest single VC. *)
  jobs : int;  (** Domains the suite was discharged with. *)
  proved : int;
  falsified : int;
  timed_out : int;  (** VCs that exhausted their [timeout_s] budget. *)
  capped : int;
      (** VCs whose exploration hit a resource cap ({!Vc.Capped}):
          inconclusive, and counted as failures by {!all_proved}. *)
}

val discharge : ?jobs:int -> ?timeout_s:float -> Vc.t list -> report
(** Run every VC, timing each one individually.  [jobs] (default [1])
    sets the number of domains; any [jobs <= 1] runs sequentially on the
    calling domain.  With [jobs > 1] the caller runs its share of the VCs
    too, so those VCs see its domain-local state (the {!Contract} mode,
    the {!Vc} budget, the packet counters), exactly as every VC does
    under [jobs = 1]; the others start from a fresh domain's defaults.
    [timeout_s] arms a cooperative per-VC budget (see
    {!Vc.with_budget}); omitted means no budget. *)

val all_proved : report -> bool
(** [true] iff no VC was falsified, timed out, or capped. *)

val failures : report -> result list
(** The falsified, timed-out and capped results, if any. *)

val times : report -> float list
(** Per-VC times in seconds, in discharge order. *)

val cdf : report -> (float * float) list
(** CDF points of per-VC verification times (Figure 1a). *)

val by_category : report -> (string * result list) list
(** Results grouped by VC category, categories in first-seen order. *)

val pp_summary : Format.formatter -> report -> unit
(** One-paragraph summary: counts, summed per-VC time, wall time, and
    the max time with the id of the VC that took it. *)

val pp_breakdown : Format.formatter -> report -> unit
(** Where the time went: one line per category (VC count and summed
    time, categories in first-seen order), then the five slowest VCs,
    slowest first. *)

val pp_failures : Format.formatter -> report -> unit
(** Detailed listing of falsified and timed-out VCs. *)
