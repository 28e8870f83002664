(** Small statistics toolkit used by the verifier and the benchmark
    harness: means, percentiles and the CDF points plotted in Figure 1a. *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0,1], nearest-rank on the sorted data.
    Raises [Invalid_argument] on the empty list. *)

val cdf : float list -> (float * float) list
(** [cdf xs] returns [(x, fraction <= x)] points over the sorted data, one
    per distinct value, suitable for plotting a cumulative distribution. *)

val histogram : bins:int -> float list -> (float * int) list
(** [histogram ~bins xs] returns [(bin_upper_bound, count)] over equal-width
    bins spanning the data range. *)

val sum : float list -> float
(** Sum of the list. *)

(** Bounded-memory streaming percentile sketch (Vitter's Algorithm R).

    A reservoir of [capacity] floats is a uniform sample of everything
    [add]ed so far, so percentiles over million-sample latency streams cost
    [capacity] words of memory.  Replacement decisions come from a seeded
    [Gen.t]: equal seeds and equal input streams give bit-identical
    reservoirs.  While [count t <= capacity t] the reservoir holds every
    sample and [percentile] agrees exactly with {!Stats.percentile}. *)
module Reservoir : sig
  type t

  val create : ?capacity:int -> seed:int64 -> unit -> t
  (** [create ~seed ()] makes an empty reservoir ([capacity] defaults to
      4096).  Raises [Invalid_argument] if [capacity < 1]. *)

  val add : t -> float -> unit
  (** Offer one sample to the reservoir. *)

  val count : t -> int
  (** Total samples offered so far (may exceed capacity). *)

  val stored : t -> int
  (** Samples currently held: [min (count t) (capacity t)]. *)

  val capacity : t -> int
  (** Maximum samples held — the memory bound. *)

  val percentile : float -> t -> float
  (** [percentile p t], nearest-rank over the stored sample, same formula
      as {!Stats.percentile}.  Raises [Invalid_argument] when empty. *)

  val mean : t -> float
  (** Exact mean of every sample offered (not just those stored); 0. when
      empty. *)

  val min_seen : t -> float
  (** Exact minimum over all samples offered; [infinity] when empty. *)

  val max_seen : t -> float
  (** Exact maximum over all samples offered; [neg_infinity] when empty. *)

  val to_list : t -> float list
  (** The stored samples, sorted ascending. *)
end
