(** Systematic concurrency model checker.

    A Loom/CHESS-style stateful explorer: the repository's one
    interleaving explorer, for its data-race-freedom and linearizability
    obligations.  A {e thread} is an ordinary OCaml
    function run as a coroutine (effect handlers): every operation of the
    instrumented shared-state API below — read, write, CAS, atomic
    read-modify-write, lock acquire/release, futex-style park/unpark and
    condition-style await — is a {e yield point} where the scheduler may
    switch threads.  Code between yield points is atomic, exactly as code
    between syscalls is atomic under the kernel's cooperative scheduling
    guarantee.  It must touch no shared state other than through this
    API, except state (say, a ring buffer in OCaml fields) that is only
    touched while holding a lock built from {!var}s: every conflicting
    pair of accesses to it is then ordered by dependent operations on
    the lock's word, so partial-order reduction stays sound — the data
    race freedom that code also needs on the kernel.

    The scheduler enumerates schedules by depth-first search with two
    standard state-space reductions:

    - {b sleep-set partial-order reduction} (Godefroid): after exploring
      thread [t] from a state, [t] is put to sleep in the sibling
      subtrees and stays asleep as long as only operations {e independent}
      of [t]'s next operation run — at least one representative of every
      Mazurkiewicz trace is still explored, so no failure is missed;
    - {b preemption bounding} (CHESS): an optional cap on the number of
      {e preemptive} context switches (switching away from a thread that
      could still run); switches at blocking points are free.  Most
      concurrency bugs need very few preemptions, so a bound of 2 finds
      them in a tiny fraction of the full schedule space.

    Every schedule is replayed deterministically from a fresh state (the
    [make] callback), so a failing schedule is itself a reproducible
    artifact: it is reported as the thread-choice sequence, an operation
    trace, and is automatically {e shrunk} to a minimal-preemption
    failing schedule by re-exploring at increasing preemption bounds.

    Spin discipline: a loop that can run without any other thread taking
    a step (a value spin) must use {!await} or {!park}, which block the
    thread instead of burning schedules; CAS-retry loops are fine because
    each retry requires another thread's step.  A runaway loop trips the
    per-schedule step budget and is reported as a livelock rather than
    hanging the checker. *)

type ctx
(** Per-exploration handle threaded through [make] and thread bodies. *)

type var
(** A shared integer cell (a machine word in the modeled memory). *)

type lock
(** A blocking mutual-exclusion lock tracked by the scheduler. *)

(* ------------------------------------------------------------------ *)
(* Configuration and results                                           *)

type config = {
  preemption_bound : int option;
      (** Max preemptive context switches per schedule; [None] explores
          the full (sleep-set-reduced) schedule space. *)
  max_schedules : int;
      (** Exploration cap; hitting it yields an incomplete ([capped])
          result, surfaced as {!Vc.Capped} by {!vc}. *)
  max_steps : int;
      (** Per-schedule step budget; exceeding it is a {!Livelock}. *)
  por : bool;  (** Enable sleep-set partial-order reduction. *)
  shrink : bool;
      (** Shrink a failing schedule to minimal preemptions before
          reporting. *)
}

val default_config : config
(** No preemption bound, 200_000 schedules, 10_000 steps, POR and
    shrinking on. *)

type failure_kind =
  | Assertion of string  (** {!check} failed or a thread raised. *)
  | Deadlock of string  (** No runnable thread; blocked threads listed. *)
  | Livelock  (** Step budget exceeded (unbounded spin). *)

type failure = {
  kind : failure_kind;
  schedule : int list;
      (** Thread choice at each step, up to and including the failing
          step — feed to {!replay}. *)
  trace : string list;
      (** The operations, one per step, rendered when the failure is
          built: a step records the thread and the operation it ran, and
          an operation carries no formatted text, only the names and
          arguments it captured when it yielded. *)
  preemptions : int;  (** Preemptive switches in [schedule]. *)
}

type stats = {
  schedules : int;  (** Schedules (replayed executions) explored. *)
  steps : int;  (** Total operation steps executed. *)
  sleep_cuts : int;  (** Runs cut by the sleep set (covered elsewhere). *)
  bound_cuts : int;  (** Runs cut by the preemption bound. *)
  capped : bool;  (** [max_schedules] was hit. *)
  complete : bool;
      (** Every schedule (up to trace equivalence and the preemption
          bound) was explored: [not capped]. *)
}

type result = Pass of stats | Fail of failure * stats

(* ------------------------------------------------------------------ *)
(* State construction (inside [make], or between yields)               *)

val var : ctx -> ?name:string -> int -> var
(** Fresh shared cell with the given initial value.  Traces call an
    unnamed cell [v<id>], where [<id>] counts the objects [make] created
    before it. *)

val lock : ctx -> ?name:string -> unit -> lock
(** Fresh free lock; an unnamed one is [l<id>] in traces. *)

val peek : var -> int
(** Read a cell without a scheduling point — for final-state checks and
    failure messages only, never inside a modeled algorithm. *)

(* ------------------------------------------------------------------ *)
(* Instrumented operations (yield points; call only inside threads)    *)

val read : ctx -> var -> int
val write : ctx -> var -> int -> unit

val cas : ctx -> var -> expect:int -> set:int -> bool
(** Atomic compare-and-swap; [true] iff the swap happened. *)

val update : ctx -> var -> (int -> int) -> int
(** Atomic read-modify-write; returns the {e old} value.  Models a
    load+store pair with no intervening yield (e.g. user code between
    syscalls under the kernel's cooperative scheduler).  [f] must be
    pure. *)

val acquire : ctx -> lock -> unit
(** Blocks (descheduled, not spinning) until the lock is free. *)

val release : ctx -> lock -> unit
(** Fails the schedule if the calling thread does not hold the lock. *)

val park : ctx -> var -> expect:int -> unit
(** Futex wait: atomically, if the cell still holds [expect], block
    until {!unpark}; otherwise return immediately (EAGAIN).  Callers
    re-check their condition in a loop, as with real futexes. *)

val park_any : ctx -> var -> unit
(** A naive unconditional sleep {e without} the value check — exists to
    seed the classic lost-wakeup bug in mutation self-tests. *)

val unpark : ctx -> var -> count:int -> int
(** Wake up to [count] threads parked on the cell (FIFO); returns the
    number woken. *)

val await : ctx -> var -> (int -> bool) -> int
(** Block until the cell satisfies the predicate; returns the value
    observed.  The modeled equivalent of a bounded spin on a value —
    use it instead of a read loop, which the explorer rejects as a
    livelock.  [p] must be pure. *)

val self : ctx -> int
(** Index of the currently running thread. *)

val now : ctx -> int
(** Strictly increasing logical clock (no yield): each call returns a
    fresh tick, so invocation/response timestamps taken with [now]
    reflect the true real-time order of the schedule — ready for
    {!Linearizability}. *)

val check : ctx -> bool -> string -> unit
(** Assert inside a thread; failure ends the schedule as {!Assertion}. *)

exception Violation of string
(** Raised by {!check}; any other exception escaping a thread is also an
    {!Assertion} failure. *)

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)

val run :
  ?config:config ->
  make:(ctx -> 'a) ->
  threads:('a -> ctx -> unit) list ->
  ?final:('a -> string option) ->
  unit ->
  result
(** Explore every schedule of the given threads over a fresh shared
    state per schedule ([make] is re-run, so it must be deterministic).
    [final] is checked on the shared state after schedules on which all
    threads finished; [Some msg] fails the schedule.  At most 62
    threads. *)

val replay :
  ?config:config ->
  make:(ctx -> 'a) ->
  threads:('a -> ctx -> unit) list ->
  ?final:('a -> string option) ->
  schedule:int list ->
  unit ->
  failure option
(** Deterministically re-execute one schedule; [Some] iff it fails
    (the reproduction check for a shrunk counterexample). *)

(* ------------------------------------------------------------------ *)
(* VC integration                                                      *)

val render_failure : failure -> string
(** One line: the failure kind, the schedule, its preemption count and
    the trace — the text {!vc} reports for a falsified VC. *)

val vc :
  id:string ->
  category:string ->
  ?config:config ->
  make:(ctx -> 'a) ->
  threads:('a -> ctx -> unit) list ->
  ?final:('a -> string option) ->
  unit ->
  Vc.t
(** [Proved] iff exploration passes; a capped exploration is the typed
    {!Vc.Capped} outcome (under-exploration is visible, not silent); a
    failure renders the shrunk schedule and trace. *)

val vc_catches :
  id:string ->
  category:string ->
  ?config:config ->
  ?expect:(failure -> bool) ->
  make:(ctx -> 'a) ->
  threads:('a -> ctx -> unit) list ->
  ?final:('a -> string option) ->
  unit ->
  Vc.t
(** Mutation self-check: [Proved] iff the explorer {e finds} a failure
    (optionally matching [expect]) — the checker is itself checked.  A
    pass, or a capped run that found nothing, falsifies. *)
