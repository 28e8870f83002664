(** The [fi] verify suite: fault injection end to end.

    Obligations over the fault machinery itself (plan determinism,
    replay, shrinking, enumeration), the faulty disk and link models,
    systematic crash-point exploration of WAL transactions and
    filesystem operations, TCP's delivery contract under bounded fault
    families, NR linearizability under stalled replicas and delayed
    combiners, serde totality on corrupted bytes — plus mutation
    self-checks proving the machinery actually catches seeded bugs
    (commit header flushed before records, missing barrier in recovery,
    flush without a stall barrier, TCP without checksum validation). *)

val vcs : unit -> Bi_core.Vc.t list
