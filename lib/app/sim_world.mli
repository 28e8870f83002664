(** The simulated world the [rs], [sh] and [wl] suites run their client
    fibers in, on the {!Bi_core.Vtime} scheduler.

    Every link is a pair of {!Bi_fault.Faulty_link} channels, so every
    injected fault is a replayable artifact of its plan.  Frames carry a
    request id and a CRC-32 over the whole frame ({!Protocol.seal}): any
    corruption makes a frame undecodable, and it is dropped, to be
    repaired by retry.  Every node commits through an in-memory
    {!Journal} by netd's protocol, so these suites check the commit path
    the daemon runs. *)

(** {1 Shared transport} *)

type net
(** Request ids and the response slots of waiting callers. *)

val net : Bi_core.Vtime.t -> net

val send : net -> Bi_fault.Faulty_link.channel -> Protocol.req -> int
(** Seal a request under a fresh id and put it on the channel; nobody
    waits for the answer.  Returns the id. *)

val call :
  net ->
  Bi_fault.Faulty_link.channel ->
  attempt_timeout:int ->
  Protocol.req ->
  (Protocol.resp, string) result
(** One attempt, from inside a fiber: {!send}, then sleep a round at a
    time until {!deliver} answers or [attempt_timeout] rounds pass. *)

val arrivals : Bi_fault.Faulty_link.channel -> (int * Protocol.req) list
(** Step a request channel one round: the decodable requests, with ids. *)

val reply : Bi_fault.Faulty_link.channel -> id:int -> Protocol.resp -> unit

val deliver : net -> Bi_fault.Faulty_link.channel -> unit
(** Step a response channel one round and answer the waiting callers. *)

val net_clock : net -> Resilient_client.clock

val patient_config : int -> Resilient_client.config
(** [patient_config seed]: retries for workloads that must complete —
    generous attempts and deadline, a breaker that never trips. *)

(** {1 Nodes} *)

type node = {
  name : string;
  store : Node_core.store;  (** Durable across crashes. *)
  journal : Journal.t;  (** In memory; durable across crashes. *)
  mutable core : Node_core.t;
  mutable up : bool;
  mutable node_epoch : int;
  mutable last_recovery : Node_core.recovery;
  req_ch : Bi_fault.Faulty_link.channel;
  resp_ch : Bi_fault.Faulty_link.channel;
}

type t = { net : net; nodes : node array }

val node :
  name:string ->
  req_plan:Bi_fault.Fault_plan.t ->
  resp_plan:Bi_fault.Fault_plan.t ->
  unit ->
  node
(** A node over an in-memory store and an in-memory {!Journal}, both
    kept across {!crash} and {!restart}: its core commits every mutation
    through the journal, as netd's does. *)

val create : Bi_core.Vtime.t -> node list -> t

val crash : t -> int -> unit
(** Stop serving: a request that arrives while the node is down is
    dropped, as a lost frame is. *)

val revive : t -> int -> unit
(** Partition heal: serve again with the same core, losing nothing. *)

val restart : t -> int -> unit
(** A fresh core in the next epoch over the same store and journal, so
    replicas must re-fence and resync.  The core rebuilds its duplicate
    table, degraded latch and shard ownership by {!Node_core.recover}:
    ownership is journaled like the rest, so the caller restores
    nothing. *)

val tick : t -> unit
(** One round: each node that is up serves every request that arrives
    this round, in arrival order; a node that is down drops them.  Then
    its responses are delivered. *)

val endpoint : t -> int -> attempt_timeout:int -> Resilient_client.endpoint
val clock : t -> Resilient_client.clock

val admin : t -> int -> Shard_router.admin
(** Node [i]'s shard-ownership API ({!Node_core.freeze}, [adopt],
    [release], ...) as the migration driver's admin.  The closures
    dereference the node's {e current} core at call time, so a
    crash-restarted node is still reachable through them. *)
