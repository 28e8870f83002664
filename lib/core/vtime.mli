(** Virtual time: the one event queue and the one fiber scheduler every
    simulation in the tree runs on, so every schedule replays bit-for-bit. *)

(** Binary min-heap keyed (time, insertion seq): pops in time order, FIFO
    at equal times. *)
module Heap : sig
  type 'a t

  val create : 'a -> 'a t
  (** [create dummy]: [dummy] fills vacated slots, so popped values are
      not retained. *)

  val push : 'a t -> time:int -> 'a -> unit
  val pop : 'a t -> (int * 'a) option
  val min_time : 'a t -> int option
end

(** {1 Fiber scheduler}

    Fibers resume in (wake round, enqueue order); whenever none is
    runnable, the clock advances one round and [tick] runs once. *)

type t

val make : unit -> t
val now : t -> int

val sleep : int -> unit
(** Suspend the calling fiber for [max 1 n] rounds.  Only valid inside a
    fiber started by {!spawn}. *)

val spawn : t -> (unit -> unit) -> unit
(** Start a fiber at the current round, after those already queued. *)

val run : ?max_rounds:int -> tick:(unit -> unit) -> t -> int
(** Run until no fiber is left; return the final round.  Fails with
    [Failure] if the clock would pass [max_rounds] (default 100_000). *)
