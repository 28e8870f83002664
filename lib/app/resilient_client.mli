(** The resilient block-store client: retries keyed by transaction ids,
    deadline propagation, capped exponential backoff with deterministic
    seeded jitter, and a per-endpoint circuit breaker.

    The client is transport-agnostic: it drives an {!endpoint} (any
    request → response function, e.g. a kernel TCP connection or one leg
    of the [rs] suite's simulated faulty network) against a {!clock}
    (real milliseconds or simulated rounds).  All timing decisions go
    through the clock, so every schedule is replayable.

    {b Retry contract.}  Each mutation carries a {!Protocol.txn} shared
    by all of its attempts; the node's duplicate table makes the retries
    exactly-once.  Only transient failures are retried: transport errors,
    values that fail their checksum on receipt, and [Err Bad_crc] (the
    wire corrupted the request).  Definitive rejections ([Bad_key],
    [Read_only], ...) return immediately.

    {b Deadline.}  A call stops starting new attempts once
    [config.deadline] clock units have elapsed since it began, and every
    backoff sleep is clamped to the remaining budget — the client never
    sleeps past its own deadline.  A call can overshoot by at most the
    one attempt already in flight when the deadline passed.

    {b Breaker.}  Consecutive transient failures ≥ [breaker_threshold]
    open the breaker: calls fail fast with [Breaker_open] for
    [breaker_cooldown] clock units, after which the breaker half-opens
    and admits {e exactly one} probe call — success recloses it, failure
    reopens it. *)

type endpoint = {
  name : string;
  rpc : Protocol.req -> (Protocol.resp, string) result;
      (** One attempt: send the request, wait (bounded) for the matching
          response.  [Error] is a transport-level failure. *)
}

type clock = { now : unit -> int; sleep : int -> unit }

type config = {
  max_attempts : int;  (** Total attempts per call, first included. *)
  backoff_base : int;  (** Delay after the first failure (clock units). *)
  backoff_cap : int;  (** Exponential growth saturates here. *)
  jitter_pm : int;  (** Jitter amplitude: each step is perturbed ±this. *)
  breaker_threshold : int;  (** Consecutive failures that open it. *)
  breaker_cooldown : int;  (** Open → half-open after this long. *)
  deadline : int;  (** Per-call budget in clock units. *)
  seed : int;  (** Seeds the jitter; same seed ⇒ same schedule. *)
}

val default_config : config

val backoff : config -> attempt:int -> int
(** Pure: the delay slept after failed attempt [attempt] (1-based) —
    [min backoff_cap (backoff_base * 2{^attempt-1})] plus a jitter in
    [±jitter_pm] derived deterministically from [seed] and [attempt].
    Changing only [seed] moves each step by at most [2 * jitter_pm]. *)

type breaker = Closed | Open_until of int | Half_open

type error =
  | Invalid_key  (** Rejected locally by {!Protocol.valid_key}. *)
  | Breaker_open  (** Fast-failed; no attempt was made. *)
  | Deadline  (** Budget exhausted before a definitive answer. *)
  | Exhausted of string
      (** All [max_attempts] failed transiently; detail of the last. *)
  | Remote of Protocol.err  (** Definitive remote rejection. *)

val pp_error : Format.formatter -> error -> unit

type t

val create : ?config:config -> client:int -> clock -> endpoint -> t
(** [client] is this client's id in every transaction it mints; two
    clients retrying against one node must not share it. *)

val put : t -> key:string -> value:string -> (unit, error) result
(** [put] and {!delete} mint a fresh transaction id per call (strictly
    increasing [seq]).  {!Replica_set} and {!Shard_router} each mint
    their own and pass one txn to {!put_txn}/{!delete_txn}, so every
    replica, or every re-route, sees the same id. *)

val put_txn : t -> txn:Protocol.txn -> key:string -> value:string ->
  (unit, error) result

val get : t -> key:string -> (string option, error) result
val delete : t -> key:string -> (bool, error) result
val delete_txn : t -> txn:Protocol.txn -> key:string -> (bool, error) result
val list : t -> (string list, error) result
val ping : t -> (Protocol.health * int, error) result

val breaker_state : t -> breaker

type stats = {
  ops : int;  (** Calls started (breaker fast-fails included). *)
  attempts : int;  (** RPC attempts actually sent. *)
  retries : int;  (** Attempts beyond the first of their call. *)
  breaker_opens : int;
  breaker_closes : int;  (** Half-open probes that succeeded. *)
  sheds : int;  (** Attempts answered [Err Overloaded] by the server. *)
}

val stats : t -> stats

val total_stats : t array -> stats
(** Field-wise sum over several clients. *)
