(** The futex word every [lib/ulib] primitive is written over.

    {!Umutex}, {!Ucond}, {!Usem}, {!Urwlock}, {!Ubarrier} and netd's
    [Req_queue] are each a functor over {!S}, instantiated twice: with
    {!Usys}, the code user threads run on the kernel, and with
    {!Explore}, the same code run by the model checker.  The [mc/ulib]
    and [nd/model] VCs therefore explore the code netd runs, not a
    transcription of it. *)

module type S = sig
  type ctx
  (** The calling thread's handle. *)

  type t
  (** One shared word. *)

  val alloc : ctx -> name:string -> int64 -> t
  (** A fresh word holding the given value; [name] labels it in
      counterexample traces. *)

  val load : ctx -> t -> int64

  val update : ctx -> t -> (int64 -> int64) -> int64
  (** Atomic read-modify-write; returns the {e old} value.  [f] must be
      pure. *)

  val futex_wait : ctx -> t -> expected:int64 -> unit
  (** Sleep until a {!futex_wake} on the word, unless it no longer holds
      [expected] (then return at once).  Wakeups may be spurious:
      callers re-check their condition in a loop. *)

  val futex_wake : ctx -> t -> count:int -> int
  (** Wake up to [count] sleepers; returns the number woken. *)
end

module Usys : S with type ctx = Bi_kernel.Usys.t
(** Words in private mmapped pages, accessed by [Usys.load]/[store] and
    the futex syscalls.  User threads are preempted only at syscalls, so
    [update]'s load+store, with no syscall between, is atomic.  A fault
    on the word raises [Failure]. *)

module Explore :
  S with type ctx = Bi_core.Explore.ctx and type t = Bi_core.Explore.var
(** Words as model-checker cells: [update] is one [Explore.update],
    [futex_wait] is [park ~expect], [futex_wake] is [unpark].  Values
    must fit in an OCaml [int]. *)
