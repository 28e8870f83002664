(** Translation lookaside buffer model.

    The hardware spec in the paper (Section 5) covers "walking the page
    table, or using cached translations from the TLB".  This model caches
    4 KiB-granularity translations and — crucially for the unmap proof
    obligation — can serve {e stale} entries until they are explicitly
    invalidated, which is why unmap must end with an [invlpg] (and a
    shootdown on other cores, costed in the Figure 1c benchmark).  The
    kernel gives each address space its own TLB
    ([Bi_kernel.Address_space]).  The cache is {!Fifo_cache}, the same
    one under {!Pwc}. *)

type entry = { frame : Addr.paddr; perm : Pte.perm }

type t

val create : capacity:int -> t
(** A [capacity]-entry TLB with FIFO replacement: a full TLB evicts its
    oldest live entry. *)

val lookup : t -> Addr.vaddr -> entry option
(** Lookup by the enclosing 4 KiB virtual page. *)

val insert : t -> Addr.vaddr -> entry -> unit
(** Cache a translation for the enclosing 4 KiB virtual page.  Inserting
    a page that is already cached refreshes the entry in place without
    affecting its FIFO eviction position; a page inserted again after
    {!invlpg} is the newest entry. *)

val invlpg : t -> Addr.vaddr -> unit
(** Invalidate the entry covering the address, if cached. *)

val flush : t -> unit
(** Drop everything (CR3 reload). *)

val entry_count : t -> int

val queue_length : t -> int
(** Length of the internal FIFO bookkeeping queue.  Exceeds
    {!entry_count} only by the number of invalidated-but-not-yet-evicted
    keys, which is itself bounded by the capacity: repeated insertion of
    cached pages must not grow it, and repeated [invlpg] + re-[insert]
    cycles on the same hot page compact the queue once the dead slots
    outnumber the capacity (regression hooks). *)

val hits : t -> int
val misses : t -> int
val reset_counters : t -> unit
