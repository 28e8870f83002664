(** Spinning readers-writer lock.

    NR uses a readers-writer lock per replica: many readers may consult the
    replica concurrently; the combiner takes the writer side to replay the
    log.  This implementation is a single shared word — negative means a
    writer holds it, non-negative counts readers — claimed by
    compare-and-swap.  An acquire the word does not allow waits
    ({!Cell.S.await}: a [Domain.cpu_relax] spin on {!Cell.Atomic}, which
    suits the short critical sections NR produces).  The top level is
    the {!Cell.Atomic} instance of {!Make}; [mc/nr/rwlock] runs its
    {!Cell.Explore} instance. *)

module Make (C : Cell.S) : sig
  type t

  val create : C.ctx -> t

  val acquire_read : t -> unit
  val release_read : t -> unit

  val acquire_write : t -> unit
  val release_write : t -> unit

  val try_acquire_write : t -> bool
  (** Non-blocking writer acquisition. *)

  val with_read : t -> (unit -> 'a) -> 'a
  (** Bracketed read section (releases on exceptions). *)

  val with_write : t -> (unit -> 'a) -> 'a
  (** Bracketed write section. *)

  val readers : t -> int
  (** Instantaneous reader count (for tests and stats; racy by nature). *)
end

include module type of Make (Cell.Atomic)
