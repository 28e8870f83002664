(** Per-process address spaces over the verified page table.

    Each process owns a {!Bi_pt.Pt_verified} rooted in the shared physical
    memory, plus a region allocator for its user virtual range.  [mmap]
    allocates physical frames and maps them; [munmap] unmaps and returns
    the frames.  User memory accesses — including the kernel's own reads
    of user buffers for the futex value check and the syscall {e mapping
    obligation} (paper Section 3) — go through {!load_u64}/{!store_u64},
    i.e. through the MMU interpreting the verified page table. *)

type t

val user_base : int64
(** First mappable user virtual address (1 GiB). *)

val create : mem:Bi_hw.Phys_mem.t -> frames:Bi_hw.Frame_alloc.t -> t
(** Allocates the page-table root; raises [Frame_alloc.Out_of_frames]
    when there is no frame for it. *)

val cr3 : t -> Bi_hw.Addr.paddr

val mmap : t -> bytes:int -> (int64, Sysabi.err) result
(** Allocate and map [bytes] (rounded up to whole 4 KiB pages) of zeroed
    memory at the next free virtual range; returns the base address. *)

val munmap : t -> va:int64 -> (unit, Sysabi.err) result
(** Unmap a region previously returned by {!mmap} (whole region, by base
    address) and free its frames. *)

val resolve : t -> va:int64 -> (Bi_hw.Addr.paddr, Sysabi.err) result

val protect :
  t -> va:int64 -> perm:Bi_hw.Pte.perm -> (unit, Sysabi.err) result
(** Change the permissions of a whole region previously returned by
    {!mmap} (identified by its base address), page by page through the
    verified page table's [protect]. *)

val load_u64 : t -> va:int64 -> (int64, Sysabi.err) result
(** Read user memory through the MMU (8-byte aligned). *)

val store_u64 : t -> va:int64 -> int64 -> (unit, Sysabi.err) result

val mapped_bytes : t -> int
(** Total bytes currently mapped (for accounting tests). *)

val destroy : t -> unit
(** Unmap everything and free all frames, the page-table root included
    (process teardown).  The address space must not be used afterwards:
    its root frame may already belong to another process. *)
