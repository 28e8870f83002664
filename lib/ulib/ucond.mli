(** Condition variable over kernel futexes, used with {!Umutex}.

    Sequence-counter design: the futex word counts signals; a waiter reads
    the counter, releases the mutex, and sleeps unless the counter moved —
    closing the missed-wakeup window exactly as in futex-based pthreads.
    Written once over {!Word.S}; [mc/ucond/no-lost-signal] runs
    {!Make}[ (Word.Explore)]. *)

module type S = sig
  type ctx
  type t
  type mutex

  val create : ctx -> t

  val wait : ctx -> t -> mutex -> unit
  (** Atomically release the mutex and sleep; re-acquires before
      returning.  Spurious wakeups are possible (as in pthreads) — always
      re-check the predicate in a loop. *)

  val signal : ctx -> t -> unit
  (** Wake at least one waiter, if any. *)

  val broadcast : ctx -> t -> unit
end

module Make (W : Word.S) (M : Umutex.S with type ctx = W.ctx) :
  S with type ctx = W.ctx and type mutex = M.t

include S with type ctx = Bi_kernel.Usys.t and type mutex = Umutex.t
