(** Shared-resource contention models for the simulated multicore.

    Two resources dominate NR latency: the combiner lock (one writer at a
    time; waiters' operations are batched) and the shared operation log
    cache line.  These helpers track who holds what until when, so core
    processes on the {!Bi_core.Vtime} event heap can compute their
    queueing delays. *)

(** A serially-reusable resource (the flat-combining lock): at most one
    holder; arrivals while busy queue in FIFO order. *)
module Busy_resource : sig
  type t

  val create : unit -> t

  val acquire : t -> now:int -> hold_for:int -> int
  (** [acquire r ~now ~hold_for] books the resource for the caller at the
      earliest time >= [now] it is free, for [hold_for] cycles; returns the
      time the caller's hold {e ends}. *)

  val is_busy : t -> now:int -> bool
end

(** Batching accumulator (a combiner's pending-operations list): ops join
    while a batch is open; the combiner drains all of them at once. *)
module Batcher : sig
  type 'a t

  val create : unit -> 'a t
  val join : 'a t -> 'a -> int
  (** Add an op to the open batch; returns its position (0-based). *)

  val drain : 'a t -> 'a list
  (** Take the open batch, oldest first, leaving it empty. *)

  val size : 'a t -> int
end
