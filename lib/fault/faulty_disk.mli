(** Fault-injecting block device.

    A {!Bi_fs.Block_dev}-compatible disk model driven by a {!Fault_plan}:
    every write consults the plan and can be dropped, duplicated, swapped
    with the previous in-flight write, corrupted (torn intra-block
    write), or stalled for a bounded number of subsequent writes —
    modelling the reordering write caches of the crash-consistency
    literature, beyond the prefix-crash model in [lib/hw].  Reads serve
    program order (newest in-flight record for the sector), with optional
    transient bit-rot on the returned copy.

    Flush is a full barrier: all in-flight writes, stalled included,
    become durable in sequence order.  The flush-without-barrier mutant
    of [fi/mutation/disk-flush-without-barrier] is built in [Fi_check],
    around this device.  Crashing yields an ordinary fault-free
    [Block_dev] holding the durable image plus a surviving subset of
    pending writes; stalled writes are always lost. *)

type t

val create : ?plan:Fault_plan.t -> sectors:int -> unit -> t
(** Fresh zeroed device.  Default plan is the empty script (no faults). *)

val to_block_dev : t -> Bi_fs.Block_dev.t
(** The device as a [Block_dev]; WAL and filesystem run over it
    unchanged. *)

val read : t -> int -> bytes
val write : t -> int -> bytes -> unit
val flush : t -> unit

val crash : ?seed:int -> t -> Bi_fs.Block_dev.t
(** Crash copy: durable image plus a seeded subset of pending writes
    (stalled writes always lost), as a fault-free device. *)

val crash_with : t -> keep_unflushed:int -> Bi_fs.Block_dev.t
(** Crash copy keeping the first [keep_unflushed] pending writes in
    durability order, clamped to [[0, pending]]. *)

val pending_count : t -> int
val stalled_count : t -> int

val injected : t -> int
(** Faults actually applied so far. *)

val io_count : t -> int
