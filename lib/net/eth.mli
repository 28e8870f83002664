(** Ethernet II framing. *)

type t = { dst : string; src : string; ethertype : int; payload : bytes }
(** MACs are 6-byte strings. *)

val ethertype_ipv4 : int
val ethertype_arp : int

val broadcast : string
(** ff:ff:ff:ff:ff:ff. *)

val encode : t -> bytes

val frame_iov :
  dst:string -> src:string -> ethertype:int -> Pkt.Iov.t -> Pkt.Iov.t
(** Zero-copy {!encode}: prepends a header slice to the payload iovec.
    Materializes to exactly [encode]'s bytes. *)

val decode : bytes -> t option
(** [None] on truncated frames. *)
