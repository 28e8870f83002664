(** The shared cell every [lib/nr] algorithm is written over.

    {!Log}, {!Rwlock} and {!Nr} are each a functor over {!S},
    instantiated twice: with {!Atomic}, the code NR runs on domains, and
    with {!Explore}, the same code run by the model checker.  The
    [mc/nr] and [hp/mc] VCs therefore explore [Nr.combine], [reclaim],
    the replay paths and the read path as they are, not a transcription
    of them. *)

module type S = sig
  type ctx
  (** What a cell is made in. *)

  type 'a t
  (** One shared mutable cell. *)

  val make : ctx -> name:string -> 'a -> 'a t
  (** A fresh cell holding the given value; [name] labels it in
      counterexample traces. *)

  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit

  val exchange : 'a t -> 'a -> 'a
  (** Store a value and return the old one, atomically. *)

  val fetch_and_add : int t -> int -> int
  (** Add to the cell and return the old value, atomically. *)

  val compare_and_set : 'a t -> 'a -> 'a -> bool
  (** [compare_and_set c seen v] stores [v] iff the cell holds [seen]
      by physical equality, as [Stdlib.Atomic.compare_and_set] does;
      [true] iff it stored. *)

  val await : 'a t -> ('a -> bool) -> 'a
  (** Wait until the cell's value satisfies the predicate and return
      that value.  Every value spin of the NR code is one [await]; a
      loop that retries a failed [compare_and_set] is not a value spin,
      since each retry needs another thread's store.  [p] must be
      pure. *)
end

module Atomic : S with type ctx = unit
(** [Stdlib.Atomic]; [await] spins with [Domain.cpu_relax]. *)

module Explore : S with type ctx = Bi_core.Explore.ctx
(** A cell is one {!Bi_core.Explore.var} holding an index into the
    cell's own append-only table of values, so every operation is one
    scheduling point: [get] is a [read], [set] a [write], [exchange],
    [fetch_and_add] and [compare_and_set] an [update] (the CAS compares
    the value at the var's index when the update runs), and [await] the
    explorer's [await].  A store appends its value to the table before
    the var operation that publishes its index ([fetch_and_add], whose
    sum needs the old value, appends it inside its update).  Traces show
    the indices.

    Partial-order reduction stays sound although the table is state
    outside a var: each index is written into the table once, before the
    var operation that publishes it, and read only after a var operation
    returned it, so every dependency between two threads still goes
    through the var.  Equivalent schedules may number the values
    differently; no operation exposes the numbering. *)
