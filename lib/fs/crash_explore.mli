(** Systematic crash-point exploration.

    Enumerates {e every} crash point of a storage transaction, in the
    explicit-crash-refinement style of Perennial/GoJournal: journal the
    write/flush stream the transaction issues, then for each prefix of
    that stream build the crash state and check that recovery observes
    either the pre-state or the post-state (atomicity) and that running
    recovery again changes nothing (idempotence).  On top of the plain
    prefix cuts it explores torn intra-block versions of each final
    write, seeded non-prefix survival subsets of the pending writes, and
    — when [explore_recovery] is set — crashes at every write boundary
    {e of recovery itself}, recursively re-recovered.

    Each crash state is built once, by walking one device forward through
    the op stream and crashing copies of it, and each distinct crashed
    device is recovered and checked once: a state whose contents were
    already checked is counted again but not re-viewed.  Such a cache hit
    costs a hash of the sectors whose buffers changed since the previous
    point and an equality check that is mostly pointer comparisons, both
    against the crashed device's own sector array; the cache copies that
    array only for a new state.  A crash point's label is formatted only
    when it fails. *)

type op = W of int * bytes | F  (** one journaled device operation *)

val pp_op : Format.formatter -> op -> unit

val record : Block_dev.t -> Block_dev.t * (unit -> op list)
(** [record dev] is a pass-through device plus a function returning the
    write/flush stream issued through it so far, in order. *)

type 'v config = {
  sectors : int;  (** device size *)
  setup : Block_dev.t -> unit;
      (** establish the pre-state (flushed afterwards); runs once, and
          every crash state starts from a copy of its image *)
  mutate : Block_dev.t -> unit;  (** the transaction under test *)
  view : Block_dev.t -> 'v;
      (** recover/mount a crashed device and observe its state; must be a
          deterministic function of the device contents, because the
          explorer reuses the verdict of a state it has already checked *)
  equal : 'v -> 'v -> bool;
  pp : (Format.formatter -> 'v -> unit) option;
  tears : int list;  (** torn-write prefix lengths, in bytes *)
  crash_seeds : int list;
      (** seeds for non-prefix survival subsets at each boundary *)
  explore_recovery : bool;  (** also crash recovery at its own boundaries *)
}

type stats = {
  crash_points : int;  (** prefix boundaries checked *)
  torn_points : int;
  subset_points : int;  (** seeded-subset crashes checked *)
  recovery_points : int;  (** crash-during-recovery states checked *)
  writes : int;  (** writes the transaction issued *)
  flushes : int;
}

val explore : 'v config -> (stats, string) result
(** Run the exploration; [Error] carries a description of the first crash
    point whose recovered state is neither pre nor post (or where
    recovery was not idempotent), led by its label: [prefix i/n],
    [prefix i/n subset seed s], [torn write sector (op i, b bytes)],
    [recovery prefix j/m after crash i] or
    [recovery prefix j/m after crash i, seed s]. *)

val must_census : stats -> (stats, string) result -> Bi_core.Vc.outcome
(** [must_census pinned result] proves an exploration only when it
    passed with exactly the [pinned] census, so a faster explorer can
    never quietly explore less. *)
