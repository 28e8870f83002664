(** The storage node's persistence over the syscall interface: the
    block store and the redo journal, each written once over {!Files}
    ({!Node_core.file_store}, {!Journal.file_sink}) and run here on
    {!Files.of_usys}, so every access crosses the marshalled syscall
    ABI into the verified filesystem.  The cr suite crash-explores the
    same code over {!Files.of_fs}.  Each key is one file whose 4-byte
    header holds the value's CRC-32, so a save is one whole-file write,
    one filesystem transaction.  Every GET re-verifies the checksum
    before answering, so filesystem corruption is detected rather than
    served — the property Amazon's S3 work checks with lightweight
    formal methods (paper Section 1).

    Serving is [Bi_netd.Netd]'s job (acceptor + futex-backed queue +
    worker pool); request semantics (duplicate suppression, degraded
    mode, epochs) stay in {!Node_core}. *)

val port : int
(** 9000 — the block-protocol port netd listens on. *)

val usys_store : Bi_kernel.Usys.t -> Node_core.store
(** {!Node_core.file_store} over {!Files.of_usys}: each key one file,
    [/blocks/<key>], its crc as a 4-byte header before the value.  A
    save is open(create, trunc) + write + close, a load open + read +
    close (one read for a block under 8 KiB), so callers serving
    concurrently must serialize same-store access themselves — netd
    holds one data-path mutex across {!Node_core.handle}. *)

val usys_journal : Bi_kernel.Usys.t -> Journal.sink
(** {!Journal.file_sink} over {!Files.of_usys} at [/journal].  Same
    serialization contract as {!usys_store}: netd appends under its
    data-path mutex, and the append fd stays open across commits
    (write + fsync per record).  The journal file
    survives SIGKILL — the kernel filesystem outlives the process — so
    a respawned daemon's {!Node_core.recover} sees every committed
    record. *)
