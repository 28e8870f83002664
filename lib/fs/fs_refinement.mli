(** Refinement and crash-safety verification conditions for the
    filesystem.

    The same methodology as the page-table suite (paper Section 4.3: verify
    a sequential service once, against its high-level spec): scripted and
    randomized operation traces are checked through
    {!Bi_core.Refinement} against {!Fs_spec}, and transaction atomicity is
    checked by crashing the disk at {e every} write boundary inside a
    mutation and re-mounting. *)

val view : Fs.t -> Fs_spec.state
(** Abstraction function: walk the directory tree, reading every file. *)

val step : Fs.t -> Fs_spec.op -> Fs_spec.ret
(** Run one spec operation on the filesystem and read back its result in
    the spec's terms. *)

val vcs : unit -> Bi_core.Vc.t list
(** The filesystem VC suite (scripted traces, random traces, crash
    atomicity, recovery idempotence, space accounting). *)
