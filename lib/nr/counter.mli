(** The shared counter: the sequential structure the NR suites replicate,
    and the linearizability checker for its concurrent histories. *)

type op =
  | Incr  (** Returns the new value, as does [Double]. *)
  | Double
      (** Does not commute with [Incr], so replay order is observable. *)
  | Read

include Seq_ds.S with type t = int ref and type op := op and type ret = int

(** Histories against the pure counter spec. *)
module Lin : sig
  type call = { proc : int; op : op; ret : int; inv : int; res : int }

  val check : init:int -> call list -> bool
  val counterexample : init:int -> call list -> string option
end

val two_domain_history :
  calls:int -> op:(int -> op) -> (thread:int -> op -> int) -> Lin.call list
(** [two_domain_history ~calls ~op execute]: two domains, as threads 0
    and 2 (one per replica with two threads each), each run [calls] ops
    [op 0], [op 1], ... through [execute], stamping every call against one shared atomic clock.  The combined
    history, for {!Lin.check}. *)
