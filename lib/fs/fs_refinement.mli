(** Refinement and crash-safety verification conditions for the
    filesystem.

    The same methodology as the page-table suite (paper Section 4.3: verify
    a sequential service once, against its high-level spec): scripted and
    randomized operation traces are checked through
    {!Bi_core.Refinement} against {!Fs_spec}, and transaction atomicity is
    checked by {!Crash_explore}: every prefix of a mutation's write
    stream, torn writes and seeded subsets of the pending writes must
    mount to the pre-state or the post-state, with each census pinned. *)

val view : Fs.t -> Fs_spec.state
(** Abstraction function: walk the directory tree, reading every file. *)

val step : Fs.t -> Fs_spec.op -> Fs_spec.ret
(** Run one spec operation on the filesystem and read back its result in
    the spec's terms. *)

val crash_config :
  ?tears:int list ->
  ?seeds:int list ->
  ?explore_recovery:bool ->
  setup:(Fs.t -> unit) ->
  mutate:(Fs.t -> unit) ->
  unit ->
  Fs_spec.state Crash_explore.config
(** The crash-exploration config of one filesystem operation on a
    128-sector device: [setup] runs on a fresh [mkfs], [mutate] on a
    [mount] of the pre-state, and a crashed device is observed by
    mounting it and taking {!view}, compared with
    {!Fs_spec.equal_state}.  [tears], [seeds] and [explore_recovery]
    are the config's fields of the same names (none by default). *)

val vcs : unit -> Bi_core.Vc.t list
(** The filesystem VC suite (scripted traces, random traces, crash
    atomicity, recovery idempotence, space accounting). *)
