(** The storage node's Usys-backed persistence: blocks as files under
    [/blocks/<key>] with the CRC in a sidecar [/blocks/<key>.crc], every
    access crossing the marshalled syscall ABI into the verified
    filesystem.  Every GET re-verifies the checksum before answering, so
    filesystem corruption is detected rather than served — the property
    Amazon's S3 work checks with lightweight formal methods (paper
    Section 1).

    The sequential TCP serving loop that used to live here is retired:
    serving is now [Bi_netd.Netd]'s job (acceptor + futex-backed queue +
    worker pool).  Request semantics (duplicate suppression, degraded
    mode, epochs) stay in {!Node_core}; this module is just the store. *)

val port : int
(** 9000 — the block-protocol port netd listens on. *)

val usys_store : Bi_kernel.Usys.t -> Node_core.store
(** The node's backing store over the syscall interface.  Operations are
    multi-syscall (write = open(create, trunc) + write + close, for the
    block and again for its crc sidecar), so callers serving concurrently
    must serialize same-store access themselves — netd holds one
    data-path mutex across {!Node_core.handle}. *)

val usys_journal : ?path:string -> Bi_kernel.Usys.t -> Journal.sink
(** The node's redo journal over the syscall interface (default path
    [/journal]).  Same serialization contract as {!usys_store}: netd
    appends under its data-path mutex, so the append fd is kept open
    across commits (write + fsync per record).  The journal file
    survives SIGKILL — the kernel filesystem outlives the process — so
    a respawned daemon's {!Node_core.recover} sees every committed
    record. *)
