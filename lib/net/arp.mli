(** ARP for IPv4 over Ethernet: request/reply packets and the
    neighbour cache. *)

type op = Request | Reply

type t = {
  op : op;
  sender_mac : string;
  sender_ip : int32;
  target_mac : string;
  target_ip : int32;
}

val encode : t -> bytes
val decode : bytes -> t option

(** Neighbour cache with insertion-order capacity eviction: a
    {!Bi_hw.Fifo_cache}, so re-adding a cached address keeps its place. *)
module Cache : sig
  type entry = string (* MAC *)
  type cache

  val create : ?capacity:int -> unit -> cache
  (** Raises [Invalid_argument] unless [capacity > 0] (default 64). *)

  val add : cache -> int32 -> entry -> unit
  val find : cache -> int32 -> entry option
  val size : cache -> int
end
