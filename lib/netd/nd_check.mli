(** The [nd] verification suite: netd end-to-end.

    Worlds are pairs of kernels (server machine + client machine); netd
    runs as a spawned server process with its acceptor, reader threads
    and futex-queue worker pool; clients are kernel threads of a spawned
    client process driving {!Bi_app.Resilient_client} over kernel TCP.
    The suite proves end-to-end exactly-once and per-key linearizability
    (quiet, faulty NIC, netd crash + respawn with the epoch fence),
    replays the interleaved multi-process syscall traces of those same
    runs through {!Bi_kernel.Sys_spec}, exhausts schedules of the
    futex-condvar queue protocol as an {!Bi_core.Explore} model,
    checks worker no-starvation and multi-worker scaling in virtual
    time, Checked≡Erased parity, [Sysabi] fuzz totality, and catches
    three seeded mutations (unchecked futex wait, close-as-signal,
    dedup bypass). *)

val vcs : unit -> Bi_core.Vc.t list

val transport_vcs : unit -> Bi_core.Vc.t list
(** [nd/perf/no-poll]: on a traced put loop, netd and the client make no
    [Sleep] calls, every [E_again] from a recv or accept is an expired
    deadline, and a put costs exactly 21 server and 6 client syscalls.
    [bin/verify]'s [nd] suite is [vcs () @ transport_vcs ()]; the
    benchmark's verify workload pins [vcs ()] alone. *)

val bench_scaling :
  ?journal:bool -> workers:int list -> unit -> (int * int * float) list
(** [bench_scaling ~workers] runs the quiet scaling world once per pool
    size and reports [(workers, finish_ticks, acks_per_kilotick)] — the
    bench's netd subject.  [journal] (default [true]) toggles the redo
    journal so the recovery bench can price its appends. *)
