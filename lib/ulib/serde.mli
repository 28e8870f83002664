(** Composable serialization combinators.

    The user-space counterpart of the kernel's marshalling layer: the
    block-store protocol and application code build their wire formats
    from these combinators, and a single round-trip theorem per combinator
    gives round-trip for every composite — the paper's point that library
    code verifies with far less effort than kernel refinement
    (Section 5, "we expect that verifying library code can be done with
    significantly lower proof effort"). *)

type 'a t
(** A codec for values of type ['a]. *)

val u8 : int t
val u16 : int t
val u32 : int32 t
val u64 : int64 t
val varint : int t
(** Unsigned LEB128; compact for small non-negative ints. *)

val bool : bool t
val string : string t
(** Length-prefixed (varint). *)

val bytes : bytes t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val list : 'a t -> 'a list t
val option : 'a t -> 'a option t

val map : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t
(** [map inj prj c] reuses codec [c] through a bijection. *)

val encode : 'a t -> 'a -> bytes
val decode : 'a t -> bytes -> 'a option
(** [None] on truncation, trailing bytes, or invalid encoding. *)

val decode_prefix : 'a t -> bytes -> off:int -> ('a * int) option
(** Decode from an offset, returning the value and the next offset
    (for streaming). *)

val encode_to : Buffer.t -> 'a t -> 'a -> unit
(** Append the encoding to a buffer, for a caller that frames several
    values in one. *)
