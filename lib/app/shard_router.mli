(** The routing tier of the sharded block store.

    A {!cluster} is the shared, client-visible face of a set of nodes:
    the current {!Shard_map.t} (a mutable cell — the "map service"), one
    {!Resilient_client.endpoint} per node for the data plane, and one
    {!admin} per node for the control plane the migration protocol
    drives.  Each client {!connect}s its own router [t], which keeps a
    {!Resilient_client.t} per node so breaker state and retry budgets
    stay per-endpoint.

    {b Routing.}  Every operation hashes its key through the cluster's
    current map and calls the owning node.  A node that answers
    [Err (Wrong_shard v)] is telling the router its map is stale (or a
    migration has the shard frozen): the router sleeps one clock unit,
    re-reads the cluster map, and re-routes — {e reusing the same
    transaction id} — up to [route_retries] times before giving up with
    [Exhausted].  Reusing the txn is what makes a mutation whose retry
    lands on the {e new} owner still exactly-once: the migration carried
    the duplicate table with the shard.

    {b Migration} ({!migrate}) moves one shard live:

    {v
      freeze(src)  — mutations refused, reads still served
      adopt(tgt)   — target accepts the shard's writes
      copy         — src keys read / re-put through the normal
                     resilient-client machinery (checksummed end to end)
      carry dups   — export_dups(src) → import_dups(tgt)
      flip         — map.assign bumps the version; pushed to every node
      drain        — release(src): delete moved keys, prune dup entries
    v}

    Writers stall (bounded by the routing loop) only during
    freeze→flip; readers are never refused.  The sequence is fixed: the
    [sh] suite's mutants (a target that drops the carried table, a
    target that flips the map as soon as it adopts) are built in
    [Sh_check] by wrapping a node's {!admin}, around this router. *)

module P = Protocol
module RC = Resilient_client

type admin = {
  a_name : string;
  freeze : shard:int -> unit;
  unfreeze : shard:int -> unit;
  adopt : shard:int -> (unit, string) result;
  release : shard:int -> (unit, string) result;
  export_dups : shard:int -> (P.txn * P.resp) list;
  import_dups : shard:int -> (P.txn * P.resp) list -> unit;
  set_version : int -> unit;
}
(** Control-plane surface of one node ({!Node_core}'s shard-ownership
    API behind closures; an admin RPC channel in a deployment).  The
    closures must dereference the node's {e current} core so a
    crash-restarted node is still reachable. *)

type migration_stats = {
  mutable migrations : int;  (** Completed migrations. *)
  mutable keys_moved : int;
  mutable last_pause : int;  (** Freeze → flip of the last migration. *)
}

type cluster

val cluster :
  map:Shard_map.t ->
  admins:admin array ->
  endpoints:RC.endpoint array ->
  cluster
(** Raises [Invalid_argument] unless [admins] and [endpoints] have the
    same length (one of each per node). *)

val map : cluster -> Shard_map.t
val migration_stats : cluster -> migration_stats

type t

val connect :
  ?config:RC.config ->
  ?route_retries:int ->
  client:int ->
  cluster ->
  RC.clock ->
  t
(** A router for one client.  [client] obeys the same uniqueness rule as
    {!RC.create}.  Default: [route_retries = 200]. *)

val put : t -> key:string -> value:string -> (unit, RC.error) result
val get : t -> key:string -> (string option, RC.error) result
val delete : t -> key:string -> (bool, RC.error) result

val list : t -> (string list, RC.error) result
(** Scatter-gather over every node, deduplicated union — a key mid-copy
    may briefly exist on both source and target.  Fails only if every
    node fails. *)

val flip : cluster -> shard:int -> to_:int -> unit
(** The migration's flip: assign [shard] to node [to_] in the cluster
    map (bumping its version by one) and push the new version to every
    node's admin. *)

val migrate : t -> shard:int -> to_:int -> (unit, string) result
(** Move [shard] to node [to_] (no-op [Ok] if it already lives there).
    On a copy failure the abort path first releases the shard on the
    target — dropping the adopted ownership and sweeping the partial
    copy, so no stale key can surface in {!list} or be resurrected by a
    retry after a source-side delete — and only then lifts the freeze;
    the map was never flipped, so the source still owns the shard and
    the call can be retried. *)

val wrong_shard_retries : t -> int
(** [Wrong_shard] answers this router has seen, each of which triggered
    a re-route or, on the last try, the [Exhausted] error. *)
