(** Bounded fair admission queue — the overload policy under the `wl`
    workload suite.

    A node fronted by this queue holds at most [capacity] requests, ever:
    {!offer} refuses (sheds) instead of growing, which is what makes the
    queue-memory VC a structural fact rather than a tuning hope.  Dequeue
    is round-robin over clients with queued work and [per_client] caps any
    one client's share of the buffer, so a flooding client can neither
    monopolize dispatch nor squeeze a polite client out of admission.
    Within one client, order is FIFO.  (The wl suite's starvation-prone
    mutant is this queue with every arrival offered as one client and no
    [per_client] cap: a single shared FIFO under a global cap.) *)

type 'a t

val create : ?per_client:int -> capacity:int -> unit -> 'a t
(** [create ~capacity ()] makes an empty queue holding at most [capacity]
    requests.  [per_client] (default [capacity], clamped to it) caps one
    client's queued share.  Raises [Invalid_argument] if [capacity < 1]
    or [per_client < 1]. *)

val offer : 'a t -> client:int -> 'a -> bool
(** [offer t ~client x] admits [x] and returns [true], or sheds it and
    returns [false] when the queue is at capacity or [client] is at its
    per-client cap.  Shedding leaves no state behind. *)

val take : 'a t -> (int * 'a) option
(** Next request under round-robin over clients with queued work; [None]
    when empty. *)

val length : 'a t -> int
(** Requests currently queued. *)

val is_empty : 'a t -> bool
val capacity : 'a t -> int
val per_client : 'a t -> int

val high_water : 'a t -> int
(** Largest [length] ever observed — never exceeds [capacity]. *)

val admitted : 'a t -> int
(** Total requests admitted so far. *)

val shed : 'a t -> int
(** Total requests refused so far. *)

val clients_waiting : 'a t -> int
(** Distinct clients currently holding queued work. *)

val check_invariants : 'a t -> bool
(** Structural self-check used by the VCs: cached length equals the sum of
    per-client queues, nothing exceeds its cap, and every non-empty client
    queue is reachable from the dispatch rotation. *)
