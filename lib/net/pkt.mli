(** Packet buffer primitives: big-endian cursor codecs, iovec slices, and
    the Internet checksum.  Every protocol header in {!Bi_net} is built on
    these, and the codec round-trip VCs quantify over them. *)

(** Sequential writer. *)
module W : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  (** Big-endian. *)

  val u32 : t -> int32 -> unit
  val i64 : t -> int64 -> unit
  (** Big-endian, like every multi-byte field here. *)

  val bytes : t -> bytes -> unit
  val string : t -> string -> unit
  val contents : t -> bytes
  val length : t -> int
end

(** Sequential reader. *)
module R : sig
  type t

  exception Truncated

  val of_bytes : ?off:int -> bytes -> t
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int32
  val i64 : t -> int64
  val take : t -> int -> bytes
  val rest : t -> bytes
  val remaining : t -> int
end

(** Vectored frames: a frame is a list of read-only byte slices, so each
    protocol layer prepends its header without copying the payload.  The
    bytes are moved exactly once, at the NIC boundary
    ({!Iov.materialize}).  Slices alias their [base] storage — callers
    must not mutate it while the iovec is live. *)
module Iov : sig
  type slice = private { base : bytes; off : int; len : int }
  type t = slice list

  val slice : ?off:int -> ?len:int -> bytes -> slice
  (** View of [base.[off .. off+len)]; defaults cover the whole buffer.
      Raises [Invalid_argument] if out of range. *)

  val of_bytes : bytes -> t
  val of_string : string -> t
  (** Shares the string's storage (no copy). *)

  val empty : t

  val length : t -> int
  (** Total bytes across slices. *)

  val concat : t list -> t

  val materialize : t -> bytes
  (** Flatten to contiguous bytes — the single copy of the zero-copy
      path.  Counted by the copy stats. *)

  val iter_bytes : t -> (int -> unit) -> unit
  (** Visit every byte in order (as unsigned ints), without copying. *)
end

val set_u16 : bytes -> int -> int -> unit
(** Big-endian 16-bit store at an absolute offset (header patching). *)

val set_u32 : bytes -> int -> int32 -> unit

val checksum : bytes -> off:int -> len:int -> int
(** RFC 1071 Internet checksum (one's-complement sum of 16-bit words). *)

val checksum_valid : bytes -> off:int -> len:int -> bool
(** A region containing its own checksum field sums to 0xFFFF... i.e. the
    computed checksum over it is 0. *)

val checksum_iov : ?skip_slice:int -> Iov.t -> int
(** {!checksum} striding over slices without materializing; byte parity
    carries across slice boundaries, so the result is bit-identical to
    [checksum (Iov.materialize iov)] — the hp suite's parity VC.
    [skip_slice] is a seeded mutant (omit that slice index from the sum)
    that the hp suite must catch with a falsified VC; never pass it in
    real code. *)

(** {2 Copy accounting}

    Every primitive that moves payload bytes ({!W.bytes}, {!W.string},
    {!W.contents}, {!R.take}, {!Iov.materialize}) bumps these counters.
    The bench ablation reads them to compare bytes-copied-per-message
    between the copying and iovec framing paths.  The counters are
    domain-local: each domain counts, resets and reads only its own
    copies. *)

val reset_copy_stats : unit -> unit

val copied_bytes : unit -> int
(** Total payload bytes moved since the last reset. *)

val copies : unit -> int
(** Number of copy operations since the last reset. *)
