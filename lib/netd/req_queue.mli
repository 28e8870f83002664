(** Bounded MPMC request queue over the verified userspace futex layer.

    The hand-off between netd's acceptor/reader threads and its worker
    pool: a fixed-capacity ring guarded by one {!Bi_ulib.Umutex} with two
    {!Bi_ulib.Ucond}s, all bottoming out in the kernel's
    [Futex_wait]/[Futex_wake] syscalls.  Producers block while the ring
    is full; consumers block while it is empty; {!close} releases
    everyone.  The code is written once over {!Bi_ulib.Word.S}: the [nd]
    verify suite discharges no-lost-wakeup for {!Make}[ (Word.Explore)]
    under the model checker and for this module live on the kernel, plus
    ghost-counter invariants under [Checked] mode. *)

module type S = sig
  type ctx
  type 'a t

  val create : ctx -> capacity:int -> 'a t

  val push : ctx -> 'a t -> 'a -> bool
  (** Blocks while full.  [false] iff the queue was closed (item
      dropped). *)

  val pop : ctx -> 'a t -> 'a option
  (** Blocks while empty.  [None] iff the queue is closed {e and}
      drained — remaining items are always delivered before [None]. *)

  val close : ctx -> 'a t -> unit
  (** Idempotent.  Wakes every blocked producer and consumer: its two
      broadcasts are the queue's only futex wakes of more than one
      sleeper, so the [nd] suite seeds a close-that-signals bug as
      {!Make} over a word whose wake wakes at most one. *)

  val capacity : 'a t -> int
  val length : 'a t -> int
  val pushed : 'a t -> int
  val popped : 'a t -> int

  val high_water : 'a t -> int
  (** Maximum occupancy ever observed (under the lock). *)

  val is_closed : 'a t -> bool
end

module Make (W : Bi_ulib.Word.S) : S with type ctx = W.ctx
(** The ring is plain OCaml state touched only while holding the mutex,
    so under the model checker its reads and writes are not yield
    points: every conflicting pair is ordered by the mutex word. *)

include S with type ctx = Bi_kernel.Usys.t
