(** Physical memory.

    A flat, bounds-checked byte array addressed by physical address.  This
    is the bottom of the hardware spec: page tables are stored in it as
    actual 64-bit little-endian words, and the MMU walker reads them back
    bit-for-bit — preserving the paper's "map from a multi-level tree
    structure encoded as bits to a flat abstract data type" proof
    obligation.

    Frames are backed on first touch: every 4 KiB frame starts as a shared
    all-zero buffer and gets its own only when something is stored into
    it, so a machine pays for the memory it uses, not the memory it has.
    This is invisible through the interface — every read returns what the
    flat array would, {!size} is the installed size, and {!loads} and
    {!stores} count exactly what they would count on a flat array
    ([zero_frame] of an untouched frame still counts its 512 stores). *)

type t

exception Bad_address of Addr.paddr
(** Access outside the installed memory. *)

val create : size:int -> t
(** [create ~size] installs [size] bytes of zeroed physical memory,
    materialising none of it.  [size] must be a positive multiple of the
    4 KiB page size. *)

val size : t -> int
(** Installed bytes. *)

val read_u64 : t -> Addr.paddr -> int64
(** Little-endian 64-bit load; the address must be 8-byte aligned. *)

val write_u64 : t -> Addr.paddr -> int64 -> unit
(** Little-endian 64-bit store; the address must be 8-byte aligned. *)

val read_u8 : t -> Addr.paddr -> int
val write_u8 : t -> Addr.paddr -> int -> unit

val read_bytes : t -> Addr.paddr -> int -> bytes
(** Copy a region out. *)

val write_bytes : t -> Addr.paddr -> bytes -> unit
(** Copy a region in. *)

val zero_frame : t -> Addr.paddr -> unit
(** Zero the 4 KiB frame starting at the given (page-aligned) address. *)

val release_frame : t -> Addr.paddr -> unit
(** Drop the buffer of the 4 KiB frame starting at the given
    (page-aligned) address: the frame reads as zero again and holds no
    memory until its next store.  Counts no loads or stores. *)

val materialised : t -> int
(** Frames that currently hold their own buffer. *)

val loads : t -> int
(** Cumulative count of word loads (feeds the cycle cost model). *)

val stores : t -> int
(** Cumulative count of word stores. *)

val reset_counters : t -> unit
