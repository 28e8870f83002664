(** User-space memory allocator.

    A first-fit free-list allocator with coalescing over a byte arena —
    the "memory allocator" NrOS provides in user space (paper Section 4.1)
    and a representative of the system-library layer of Table 2.  The
    arena is abstract offsets, so the same allocator manages a process's
    mmapped region or a plain test buffer; invariants (no overlap, full
    coverage, coalesced freelist) are checked by the test suite.

    {!Pool} adds a size-classed O(1) fast path.  Only the [hp] verify
    suite drives it, through [Node_core.handle_frame]; netd calls
    [Node_core.handle] and allocates no pool.  The suite covers its
    invariants and a seeded double-free mutant. *)

type t

val create : size:int -> t
(** Manage [size] bytes starting at offset 0. *)

val alloc : t -> int -> int option
(** [alloc t n] returns the offset of an [n]-byte block ([n > 0], rounded
    up to 16-byte granules), or [None] when no block fits. *)

val free : t -> int -> unit
(** Return a block by its offset.  Raises [Invalid_argument] on a double
    free or an unknown offset. *)

val allocated_bytes : t -> int
(** Sum of live block sizes (after rounding). *)

val free_bytes : t -> int

val block_count : t -> int
(** Live allocations. *)

val scans : t -> int
(** Free-list holes examined by first-fit since the last
    {!reset_scans} — the deterministic alloc-latency proxy that
    [hp/pool/zero-scans-after-warmup] compares against the pool's O(1)
    path. *)

val reset_scans : t -> unit

val check_invariants : t -> bool
(** Free list sorted, non-overlapping, coalesced; live + free = size. *)

type arena = t

(** Size-classed pool fast path over a first-fit arena: per-class LIFO
    stacks of carved blocks make alloc/free O(1) (zero hole scans) for
    pooled classes; oversize requests fall back to first-fit.  Cached
    blocks stay allocated from the arena's point of view until {!drain}
    returns them, after which the arena coalesces as usual. *)
module Pool : sig
  type t

  val default_classes : int array
  (** [[|64; 256; 1024; 4096|]]. *)

  val create : ?classes:int array -> size:int -> unit -> t
  (** A pool over a fresh [size]-byte arena.  [classes] must be strictly
      ascending positive granule multiples. *)

  val arena : t -> arena
  (** The underlying arena (for invariant and accounting checks). *)

  val alloc : t -> int -> int option
  (** O(1) from the class stack when one fits and is cached; otherwise
      carve from the arena (or first-fit directly for oversize sizes). *)

  val free : t -> int -> unit
  (** Pooled blocks go back on their class stack (O(1)); oversize blocks
      go back to the arena.  Raises [Invalid_argument] on double free or
      unknown offset. *)

  val unsafe_free : t -> int -> unit
  (** hp-suite mutant: {!free} without the double-free guard, so a double
      free corrupts the pool (same offset cached twice) — which
      {!check_invariants} must catch.  Never use outside self-checks. *)

  val drain : t -> unit
  (** Return every cached block to the arena (coalescing applies). *)

  val live_blocks : t -> int
  (** Pool-allocated blocks not yet freed (the leak check). *)

  val cached_blocks : t -> int

  val hits : t -> int
  (** Allocs served O(1) from a class stack. *)

  val carves : t -> int
  (** Allocs that fell back to the arena's first-fit. *)

  val check_invariants : t -> bool
  (** Arena invariants, plus: stack entries distinct and exactly the
      cached set; every pooled block backed by an arena block of its
      class size; live and cached disjoint. *)
end
