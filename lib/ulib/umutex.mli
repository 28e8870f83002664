(** User-space mutex over kernel futexes.

    The paper's worked example of layering: "we might expose futexes from
    the kernel and then verify a userspace mutex implementation on top"
    (Section 3).  The protocol is the classic three-state futex mutex
    (Drepper, "Futexes are tricky"): the word holds 0 (unlocked),
    1 (locked) or 2 (locked with waiters).

    The code is written once over {!Word.S}.  Every read-modify-write of
    the word is one [Word.update] — on the kernel a load+store with no
    syscall between, atomic because user threads are preempted only at
    system calls.  The [mc/umutex/*] VCs run {!Make}[ (Word.Explore)]
    under the model checker: mutual exclusion for two and three threads
    and no lost wakeup, over every schedule. *)

module type S = sig
  type ctx
  type t

  val create : ctx -> t
  (** A fresh, unlocked mutex word. *)

  val lock : ctx -> t -> unit

  val unlock : ctx -> t -> unit
  (** Must be called by the lock holder.  Raises [Failure] if the mutex
      is not locked. *)

  val try_lock : ctx -> t -> bool
  val with_lock : ctx -> t -> (unit -> 'a) -> 'a
end

module Make (W : Word.S) : S with type ctx = W.ctx and type t = W.t
(** The mutex is its word. *)

include S with type ctx = Bi_kernel.Usys.t
(** Each mutex word sits in a private mmapped page. *)
