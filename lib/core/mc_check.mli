(** The model checker, model-checked.

    VCs exercising {!Explore} itself: the sleep-set reduction must beat
    naive merge enumeration while staying sound, bounded search must
    behave as CHESS promises (a 1-preemption bug is invisible at bound 0,
    found at bound 1), failing schedules must replay and shrink, capped
    exploration must be a visible verdict, and a seeded missing-fence
    mutation (store-buffer reordering of a Dekker-style handshake) must
    be caught.  Part of the [mc] verify suite. *)

val vcs : unit -> Vc.t list

val por_ratio : unit -> int * int
(** [(explored, naive)] for the 3 threads × 4 steps reference workload:
    schedules the sleep-set explorer actually runs versus
    {!count_merges} of the same step counts (34650).  Used by
    the [mc/por/beats-naive] VC and reported by [bench mc]. *)

val count_merges : int list -> int
(** [count_merges lens] is the number of order-preserving merges of
    threads with [lens] steps each: the multinomial coefficient
    [(sum lens)! / prod (len!)].  A closed form, independent of
    {!Explore}, so the [mc/por] VCs can check exploration against it. *)

val full_space : unit -> Explore.stats
(** The same workload explored with partial-order reduction off: every
    interleaving runs once, 34650 schedules of 12 steps each.  Checked by
    the [mc/por/sound-vs-full] VC; [bench mc] times it per step. *)
