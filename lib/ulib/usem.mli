(** Counting semaphore over kernel futexes (the "semaphores" entry of the
    paper's synchronization-mechanisms component list).  Written once
    over {!Word.S}; the [mc/usem/*] VCs run {!Make}[ (Word.Explore)]. *)

module type S = sig
  type ctx
  type t

  val create : ctx -> int -> t
  (** Semaphore with an initial count (>= 0) in a fresh word. *)

  val post : ctx -> t -> unit
  (** Increment, then wake one waiter if any. *)

  val wait : ctx -> t -> unit
  (** Block until the count is positive, then decrement. *)

  val try_wait : ctx -> t -> bool
  val value : ctx -> t -> int
end

module Make (W : Word.S) : S with type ctx = W.ctx and type t = W.t
(** The semaphore is its permit count. *)

include S with type ctx = Bi_kernel.Usys.t
