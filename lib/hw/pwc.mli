(** Paging-structure cache (x86 PML4E/PDPTE/PDE caches, SDM vol. 3
    §4.10.3).

    Where the {!Tlb} caches complete va→pa translations, this caches the
    {e intermediate} walk state: the physical base of the level-3, -2 or
    -1 table on the walk path of a virtual-address prefix, together with
    the permission meet accumulated down to that table.  A TLB miss can
    then resume the walk at the deepest cached level instead of re-reading
    from CR3 — 1 memory read for a 4 KiB translation whose PDE is cached,
    instead of 4.

    Only {e positive} entries (present table pointers) are cached, so
    [map] needs no invalidation: a prefix absent from the cache is simply
    walked.  [unmap] of a page MUST be followed by {!invlpg} on that
    address (alongside the TLB invlpg) — reclaiming a page-table page can
    otherwise leave a cached pointer to a frame the allocator may recycle,
    which is exactly the staleness x86 permits until an invalidation.
    The cache is per-address-space, and that is how the kernel uses it:
    each process's [Bi_kernel.Address_space] owns one beside its TLB and
    invalidates every page it unmaps or re-protects, so a context switch
    needs no flush (PCID).  A cache shared by several address spaces
    would have to be {!flush}ed on every CR3 switch.  The cache is
    {!Fifo_cache}, the same one under {!Tlb}, keyed by level and prefix. *)

type entry = { table : Addr.paddr; perm : Pte.perm }
(** [table] is the physical base of the table at the entry's level;
    [perm] is the meet of the permissions on the walk down to it. *)

type t

val create : capacity:int -> t
(** A [capacity]-entry cache with FIFO replacement shared across the
    three levels: a full cache evicts its oldest live entry. *)

val lookup : t -> Addr.vaddr -> (int * entry) option
(** Deepest cached walk state for [va]: [(1, e)] means the walk can
    resume by reading the L1 table at [e.table] (PDE cache hit), [(2, e)]
    the L2 table (PDPTE), [(3, e)] the L3 table (PML4E).  Counts one hit
    or one miss per call. *)

val insert : t -> level:int -> Addr.vaddr -> entry -> unit
(** Cache the level-[level] table base for [va]'s prefix ([level] must be
    1, 2 or 3).  Re-inserting a cached prefix refreshes in place. *)

val invlpg : t -> Addr.vaddr -> unit
(** Drop the cached walk state at every level whose prefix covers [va].
    Required after unmapping [va] (see the staleness contract above). *)

val flush : t -> unit
(** Drop everything (CR3 reload / full shootdown). *)

val entry_count : t -> int

val queue_length : t -> int
(** FIFO bookkeeping queue length; under twice the capacity even under
    repeated [invlpg] + re-[insert] cycles. *)

val hits : t -> int
val misses : t -> int
val reset_counters : t -> unit
