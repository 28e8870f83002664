(** Per-process address spaces over the verified page table.

    Each process owns a {!Bi_pt.Pt_verified} rooted in the shared physical
    memory, a region allocator for its user virtual range, and its own
    TLB and paging-structure cache ({!Bi_hw.Tlb}, {!Bi_hw.Pwc}, of 64
    and 16 entries).  [mmap] allocates physical frames and maps them;
    [munmap] unmaps and returns the frames.  User memory accesses —
    including the kernel's own reads of user buffers for the futex value
    check and the syscall {e mapping obligation} (paper Section 3) — go
    through {!load_u64}/{!store_u64}:
    {!Bi_hw.Mmu.load}/[store] over the verified page table, served by the
    space's TLB when it holds the page, else by a walk that resumes at the
    deepest table the PWC holds (and refills both).

    One cache pair per space is the PCID design (Intel SDM vol. 3
    §4.10.1): a context switch needs no flush.  Both caches hold present
    translations only, so [mmap] needs no invalidation.  The contract is
    the rest: {!munmap} and {!protect} invalidate every page of the
    region in both caches before they return, and {!destroy} flushes
    both.  Without it a load could still read a page after its unmap —
    from a frame another process may already own — and a store could
    still write a page made read-only.  [Aspace_check]'s [pwc/kernel/*]
    VCs check every access against an uncached walk and catch a [munmap]
    or a [protect] that skips its invalidation. *)

val user_base : int64
(** First mappable user virtual address (1 GiB). *)

module type Invalidate = sig
  val after_munmap : Bi_hw.Tlb.t -> Bi_hw.Pwc.t -> Bi_hw.Addr.vaddr -> unit
  (** Applied to every page of a region {!munmap} has just unmapped. *)

  val after_protect : Bi_hw.Tlb.t -> Bi_hw.Pwc.t -> Bi_hw.Addr.vaddr -> unit
  (** Applied to every page of a region {!protect} has just changed. *)
end
(** How a space drops a page from its own caches after a region change. *)

module Invlpg : Invalidate
(** Both are an [invlpg] of the page in the TLB and in the PWC. *)

module type S = sig
  type t

  val create : mem:Bi_hw.Phys_mem.t -> frames:Bi_hw.Frame_alloc.t -> t
  (** Allocates the page-table root; raises [Frame_alloc.Out_of_frames]
      when there is no frame for it. *)

  val cr3 : t -> Bi_hw.Addr.paddr

  val mmap : t -> bytes:int -> (int64, Sysabi.err) result
  (** Allocate and map [bytes] (rounded up to whole 4 KiB pages) of zeroed
      memory at the next free virtual range; returns the base address. *)

  val munmap : t -> va:int64 -> (unit, Sysabi.err) result
  (** Unmap a region previously returned by {!mmap} (whole region, by base
      address), free its frames and invalidate its pages in the space's
      caches. *)

  val resolve : t -> va:int64 -> (Bi_hw.Addr.paddr, Sysabi.err) result

  val protect :
    t -> va:int64 -> perm:Bi_hw.Pte.perm -> (unit, Sysabi.err) result
  (** Change the permissions of a whole region previously returned by
      {!mmap} (identified by its base address), page by page through the
      verified page table's [protect], then invalidate its pages in the
      space's caches (also when [protect] fails part-way). *)

  val load_u64 : t -> va:int64 -> (int64, Sysabi.err) result
  (** Read user memory through the MMU and the space's caches (8-byte
      aligned); [E_fault] when the page is not mapped. *)

  val store_u64 : t -> va:int64 -> int64 -> (unit, Sysabi.err) result
  (** Write user memory the same way; [E_fault] when the page is not
      mapped or not writable. *)

  val mapped_bytes : t -> int
  (** Total bytes currently mapped (for accounting tests). *)

  val destroy : t -> unit
  (** Unmap everything, flush both caches and free all frames, the
      page-table root included (process teardown).  The address space must not be used afterwards:
      its root frame may already belong to another process. *)
end

module Make (_ : Invalidate) : S
(** An address space that invalidates through the argument.  The kernel
    runs {!Invlpg}'s; a checker passes one that skips a step to seed the
    bug its VCs must catch. *)

include S
(** [Make (Invlpg)]: the address space every process runs in. *)
