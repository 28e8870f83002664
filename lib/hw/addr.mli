(** x86-64 address arithmetic.

    Virtual addresses are 48-bit canonical (sign-extended to 64); the
    four-level page-table split is 9+9+9+12 bits: L4 and L3 and L2 and L1
    indices of 9 bits each over a 12-bit page offset.  Physical addresses
    are at most 52 bits.  All addresses are carried as [int64]. *)

type vaddr = int64
type paddr = int64

val page_size : int64
(** 4 KiB base page. *)

val large_page_size : int64
(** 2 MiB page (L2 leaf). *)

val huge_page_size : int64
(** 1 GiB page (L3 leaf). *)

val entries_per_table : int
(** 512 entries per table level. *)

val is_canonical : vaddr -> bool
(** Bits 48..63 equal bit 47. *)

val canonicalize : vaddr -> vaddr
(** Sign-extend bit 47 upward. *)

val is_aligned : int64 -> int64 -> bool
(** [is_aligned a size] — [a] is a multiple of [size] ([size] a power of
    two). *)

val align_down : int64 -> int64 -> int64
(** Round down to a multiple of a power-of-two size. *)

val l4_index : vaddr -> int
val l3_index : vaddr -> int
val l2_index : vaddr -> int
val l1_index : vaddr -> int
(** Table indices, each in [0, 511]. *)

val offset_4k : vaddr -> int64
val offset_2m : vaddr -> int64
val offset_1g : vaddr -> int64
(** In-page offsets for the three mappable sizes. *)

val of_indices : l4:int -> l3:int -> l2:int -> l1:int -> offset:int64 -> vaddr
(** Rebuild a canonical virtual address from its components; inverse of the
    index extractors (a VC checks this). *)

val vpage_4k : vaddr -> vaddr
(** Base of the enclosing 4 KiB page. *)
