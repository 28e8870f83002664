(** Model-checked drivers for the userspace synchronisation primitives.

    Each driver runs a [lib/ulib] primitive's own code — {!Umutex},
    {!Urwlock}, {!Usem}, {!Ucond} and {!Ubarrier}, each instantiated as
    [Make (Word.Explore)] — under {!Bi_core.Explore}: every
    [Word.update] is one atomic step, and [futex_wait]/[futex_wake] are
    [park ~expect]/[unpark].  The explorer proves mutual exclusion,
    absence of lost wakeups (as deadlock-freedom), semaphore bounds,
    condition-variable signal delivery and barrier rendezvous over every
    schedule (up to POR, within the configured preemption bound), and
    must catch two seeded mutations: Drepper's dropped-wakeup unlock and
    a fast path whose read-modify-write is split in two.  Part of the
    [mc] verify suite. *)

val vcs : unit -> Bi_core.Vc.t list
