(** User-space readers-writer lock over kernel futexes.

    Completes the paper's synchronization-mechanisms list alongside
    {!Umutex}, {!Usem} and {!Ucond}.  One futex word encodes the state:
    0 free, [n > 0] means [n] readers, [-1] a writer.  Writers are not
    prioritized (readers can starve a writer under a pathological
    schedule; documented trade-off, as in many pthreads
    implementations).  Written once over {!Word.S}; the [mc/urwlock/*]
    VCs run {!Make}[ (Word.Explore)]. *)

module type S = sig
  type ctx
  type t

  val create : ctx -> t
  val read_lock : ctx -> t -> unit

  val read_unlock : ctx -> t -> unit
  (** Raises [Failure] if the lock is not read-locked. *)

  val write_lock : ctx -> t -> unit

  val write_unlock : ctx -> t -> unit
  (** Raises [Failure] if the lock is not write-locked. *)

  val with_read : ctx -> t -> (unit -> 'a) -> 'a
  val with_write : ctx -> t -> (unit -> 'a) -> 'a
end

module Make (W : Word.S) : S with type ctx = W.ctx and type t = W.t
(** The lock is its word. *)

include S with type ctx = Bi_kernel.Usys.t
