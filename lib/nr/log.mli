(** The shared operation log.

    NR "maintains consistency through an operation log" (paper Section
    4.1): combiners reserve a contiguous range of indices with an atomic
    compare-and-swap on the tail (checking for room before publishing the
    new tail, so a failed reservation leaves the log untouched), then
    publish their entries; replicas replay the log in order.  Entries
    carry the issuing replica and combiner slot so that exactly one
    replica — the issuer's — delivers the result.

    The log is circular, as in the NR design: indices grow without bound,
    entry [i] lives in slot [i mod capacity], tagged with [i], and a slot
    is reused once every replica has replayed the entry in it.  The log
    does not know the replicas; its owner tells it how far the slowest
    one has got with {!advance}. *)

type 'op entry = {
  op : 'op;
  replica : int;  (** Replica whose thread issued the op. *)
  slot : int;  (** Combiner slot of the issuing thread within that replica. *)
}

type 'op t

exception Full
(** The batch would overwrite an entry at or after {!head}: wait for the
    slowest replica (or replay on its behalf), {!advance}, retry. *)

val create : capacity:int -> 'op t

val append : 'op t -> 'op entry list -> int
(** Atomically reserve and publish a batch; returns the index of the first
    entry.  Safe to call from multiple domains.  Raises {!Full} without
    moving the tail when the batch would pass [head + capacity], so
    {!tail} and {!get} stay consistent after a failed append. *)

val tail : 'op t -> int
(** Number of reserved entries (some may still be publishing). *)

val head : 'op t -> int
(** Lowest index some replica may still need: entries below it may be
    overwritten.  Starts at 0. *)

val advance : 'op t -> int -> unit
(** [advance t h] raises {!head} to [h] if it is lower; the caller
    guarantees every replica has replayed the entries below [h].  Raises
    [Invalid_argument] when [h] is past {!tail}. *)

val get : 'op t -> int -> 'op entry
(** Read entry [i]; spins briefly if the publisher has reserved but not
    yet published it.  [i] must be below {!tail}; raises
    [Invalid_argument] if its slot already holds a later lap. *)

val capacity : 'op t -> int
