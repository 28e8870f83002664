(** Cyclic thread barrier over kernel futexes: [await] blocks until the
    configured number of threads have arrived, then releases them all and
    resets for the next round.  Written once over {!Word.S};
    [mc/ubarrier/rendezvous] runs {!Make}[ (Word.Explore)]. *)

module type S = sig
  type ctx
  type t

  val create : ctx -> parties:int -> t
  (** A barrier for [parties] threads ([>= 1]). *)

  val await : ctx -> t -> int
  (** Returns the arrival index within the round ([0] for the first
      arriver, ..., [parties-1] for the one that releases everyone). *)

  val parties : t -> int
end

module Make (W : Word.S) : sig
  type t = { count : W.t; generation : W.t; parties : int }
  (** Arrivals in the current round, and the round number waiters sleep
      on. *)

  include S with type ctx = W.ctx and type t := t
end

include S with type ctx = Bi_kernel.Usys.t
