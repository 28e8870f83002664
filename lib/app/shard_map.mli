(** Versioned key → shard → node assignment for the sharded block store.

    Keys hash onto a fixed ring of [nshards] shards
    (CRC-32-of-key mod [nshards], the same checksum the protocol already
    carries end to end); each shard is assigned to one node.  The map is
    an immutable value: {!assign} moves one shard and bumps the version,
    so the cluster's "map service" is just a mutable cell holding the
    current value, and a router refreshes by re-reading it.  Nodes learn
    the version out of band and quote it in [Err (Wrong_shard v)]
    replies, which is how a stale router discovers it must refresh. *)

type t

val create : nshards:int -> nodes:int -> t
(** Version 0, shards assigned round-robin over [nodes] nodes (so the
    initial assignment is balanced to within one shard).  Raises
    [Invalid_argument] unless [nshards >= 1 && nodes >= 1]. *)

val shard_of : nshards:int -> string -> int
(** The pure hash: which of [nshards] shards a key belongs to.  Node
    cores use this directly so their notion of ownership cannot drift
    from the router's. *)

val version : t -> int
val nshards : t -> int

val shard_of_key : t -> string -> int
val node_of : t -> shard:int -> int
val node_of_key : t -> string -> int

val assign : t -> shard:int -> node:int -> t
(** Reassign one shard; every other shard keeps its node.  The version
    increases by exactly 1. *)

val shards_of_node : t -> node:int -> int list
(** The shards currently assigned to [node], ascending — what a node
    is given when it joins, and recovers from its journal. *)

val pp : Format.formatter -> t -> unit
