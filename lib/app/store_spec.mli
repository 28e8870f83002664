(** Abstract specification of the block store: a finite map from keys to
    values.  Client operations refine these transitions; the end-to-end
    test drives a real client against a real node across the simulated
    network and replays the observed results here — the application-level
    instance of the paper's verification story ("an application verified
    from its high-level specification down to the hardware"). *)

type state

type op =
  | Put of string * string
  | Get of string
  | Delete of string
  | List

type ret =
  | Done
  | Value of string option
  | Deleted of bool
  | Keys of string list
  | Rejected  (** Invalid key or oversized value. *)

val empty : state

val step : state -> op -> state * ret
(** Total and deterministic. *)

val equal_ret : ret -> ret -> bool
val pp_op : Format.formatter -> op -> unit
val pp_ret : Format.formatter -> ret -> unit

(** {1 Linearizability of client histories}

    The one sequential specification every application suite checks its
    concurrent client histories against. *)

module Lin : sig
  type call = { proc : int; op : op; ret : ret; inv : int; res : int }

  val check : init:state -> call list -> bool
  val counterexample : init:state -> call list -> string option
end

type recorder = { mutable calls : Lin.call list; mutable errors : string list }
(** A history under construction: completed calls, newest first, and the
    error messages of calls that never returned a value. *)

val recorder : unit -> recorder

val record :
  recorder ->
  now:(unit -> int) ->
  int ->
  op ->
  (unit -> (ret, string) result) ->
  unit
(** [record rc ~now proc op run] runs [run] and records its outcome as a
    call by [proc], stamped by [now]: once before [run], and once after it
    only when it returns [Ok].  The response stamp is forced past the
    invocation, as {!Lin} requires. *)

val linearizable : recorder -> bool
(** The recorded history against {!step} from {!empty}. *)

val mixed_op :
  ?deletes:bool -> proc:int -> i:int -> key:string -> value:string -> unit -> op
(** The op mix of every application suite's linearizability workload,
    keyed off (proc, i) so each client's schedule is deterministic but
    different: half puts, a quarter gets, a quarter deletes (gets when
    [deletes] is false). *)

val perform :
  put:(key:string -> value:string -> (unit, 'e) result) ->
  get:(key:string -> (string option, 'e) result) ->
  delete:(key:string -> (bool, 'e) result) ->
  pp_error:(Format.formatter -> 'e -> unit) ->
  op ->
  (ret, string) result
(** Run a [Put], [Get] or [Delete] through a client's calls, as the run
    argument of {!record}. *)
