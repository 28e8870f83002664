(** A bounded translation cache with FIFO replacement: the one
    implementation under {!Tlb} (keyed by 4 KiB page) and {!Pwc} (keyed
    by level and address prefix).

    A full cache evicts its oldest live entry.  Refreshing a cached key
    keeps its position; a key that was invalidated and inserted again is
    the newest.  Invalidated entries leave dead slots in the FIFO queue,
    which eviction skips and which are dropped once they outnumber the
    capacity, so the queue never exceeds twice the capacity. *)

module Make (K : Hashtbl.HashedType) : sig
  type 'v t

  val create : capacity:int -> 'v t
  (** Raises [Invalid_argument] unless [capacity > 0]. *)

  val find : 'v t -> K.t -> 'v option
  (** One hash-table probe; moves no counter. *)

  val count : 'v t -> hit:bool -> unit
  (** Count one hit or one miss. *)

  val insert : 'v t -> K.t -> 'v -> unit
  val invalidate : 'v t -> K.t -> unit
  val flush : 'v t -> unit
  val entry_count : 'v t -> int

  val queue_length : 'v t -> int
  (** Live entries plus dead slots not yet dropped. *)

  val hits : 'v t -> int
  val misses : 'v t -> int
  val reset_counters : 'v t -> unit
end
