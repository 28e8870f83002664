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

val wal_config :
  ?tears:int list ->
  ?seeds:int list ->
  ?explore_recovery:bool ->
  setup_blocks:(int * char) list ->
  txn_writes:(int * char) list ->
  unit ->
  string list Bi_fs.Crash_explore.config
(** The crash-exploration config of one WAL transaction on a 64-sector
    device with its log at block 0: each [(block, c)] of [setup_blocks]
    fills that block with [c] before the transaction, [txn_writes] are
    the transaction's, and a crashed device is observed by recovering it
    and reading the setup blocks. *)
