(** Verification conditions.

    The paper discharges its proof obligations with an SMT solver; this
    reproduction discharges them executably.  A VC is a named, deterministic,
    total check.  The combinators below build VCs from predicates over
    bounded-exhaustive universes and from seeded random sampling, mirroring
    the obligations the paper's refinement proofs generate (per-operation
    simulation, invariant preservation, bit-level lemmas, marshalling
    round-trips). *)

type outcome =
  | Proved
  | Falsified of string
      (** Counterexample description; renders in the verification report. *)
  | Timeout of float
      (** The check exceeded its per-VC time budget (the budget, in
          seconds).  Produced by {!catch} when the check runs under
          {!with_budget} and trips a {!checkpoint}. *)
  | Capped of string
      (** The check hit an exploration resource cap (e.g.
          {!Explore}'s schedule cap) before covering its state space:
          neither proved nor falsified.
          Under-exploration is a visible verdict, never a silent pass. *)

type t = private {
  id : string;  (** Unique identifier, e.g. ["pt/map/4k/sim/rw"]. *)
  category : string;  (** Grouping key, e.g. ["refinement"], ["lemma"]. *)
  check : unit -> outcome;
}

val make : id:string -> category:string -> (unit -> outcome) -> t
(** Wrap a raw check. *)

val prop : id:string -> category:string -> (unit -> bool) -> t
(** Boolean property; [false] falsifies with a generic message. *)

val equal_by :
  id:string ->
  category:string ->
  pp:(Format.formatter -> 'a -> unit) ->
  eq:('a -> 'a -> bool) ->
  (unit -> 'a * 'a) ->
  t
(** [equal_by ~id ~category ~pp ~eq f] checks that [f ()] returns an equal
    pair; on failure the counterexample shows both sides via [pp]. *)

val forall_range : lo:int -> hi:int -> (int -> bool) -> unit -> bool
(** Bounded-exhaustive integer quantifier, inclusive bounds. *)

val forall_list : 'a list -> ('a -> bool) -> unit -> bool
(** Bounded-exhaustive quantifier over an explicit universe. *)

val forall_pairs : 'a list -> 'b list -> ('a -> 'b -> bool) -> unit -> bool
(** Cartesian-product quantifier. *)

val forall_sampled : id:string -> n:int -> (Gen.t -> 'a) -> ('a -> bool) -> unit -> bool
(** [forall_sampled ~id ~n gen p] draws [n] values from a generator seeded
    from [id] and checks [p] on each; deterministic per [id]. *)

val all : (unit -> bool) list -> unit -> bool
(** Conjunction of sub-checks. *)

val outcome_of_bool : bool -> outcome
(** [Proved] on [true]. *)

exception Timed_out of float
(** Raised by {!checkpoint} past the armed deadline; carries the budget. *)

val with_budget : budget_s:float -> (unit -> 'a) -> 'a
(** [with_budget ~budget_s f] runs [f] with a per-domain deadline of
    [budget_s] seconds from now.  The quantifier combinators above poll
    the deadline every few iterations and raise {!Timed_out} once it
    passes, so a divergent check aborts cooperatively instead of hanging
    its worker.  The previous budget (if any) is restored on exit.
    Checks that never enter a combinator cannot be interrupted — the
    budget is cooperative, not preemptive. *)

val checkpoint : unit -> unit
(** Poll the current domain's deadline; raises {!Timed_out} past it.
    No-op (and no clock read) when no budget is armed.  Long-running
    hand-written checks can call this from their own loops. *)

val catch : (unit -> outcome) -> outcome
(** Turn an escaping exception into a terminal outcome: {!Timed_out}
    becomes [Timeout], any other exception [Falsified] with its text. *)

val pp_outcome : Format.formatter -> outcome -> unit
