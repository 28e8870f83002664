(** The [nd] verification suite: netd end-to-end.

    Worlds are pairs of kernels (server machine + client machine); netd
    runs as a spawned server process with its acceptor, reader threads
    and futex-queue worker pool; clients are kernel threads of a spawned
    client process driving {!Bi_app.Resilient_client} over kernel TCP.
    The suite proves end-to-end exactly-once and per-key linearizability
    (quiet, faulty NIC, netd crash + respawn with the epoch fence),
    replays the interleaved multi-process syscall traces of those same
    runs through {!Bi_kernel.Sys_spec}, exhausts schedules of the
    worker queue's own code ({!Req_queue.Make} over
    {!Bi_ulib.Word.Explore}) under {!Bi_core.Explore},
    checks worker no-starvation and multi-worker scaling in virtual
    time, Checked≡Erased parity, [Sysabi] fuzz totality, and catches
    three seeded mutations (unchecked futex wait, close-as-signal,
    dedup bypass). *)

val vcs : unit -> Bi_core.Vc.t list

val transport_vcs : unit -> Bi_core.Vc.t list
(** [nd/perf/no-poll]: on a traced put loop, netd and the client make no
    [Sleep] calls, no recv or accept of netd's answers [E_again], every
    client recv that does is an expired deadline, and a put costs
    exactly 13 server and 4 client syscalls.
    [bin/verify]'s [nd] suite is [vcs () @ transport_vcs ()]; the
    benchmark's verify workload pins [vcs ()] alone. *)

val trace_worlds :
  unit -> (string * Bi_kernel.Kernel.t * Bi_kernel.Kernel.t * int) list
(** The traced worlds of the [nd/trace] replay VCs — ["quiet"],
    ["faulty-link"] (seeded [Faulty_link]) and ["crash-respawn"]
    (SIGKILL + respawn) — run to completion: [(name, server, client,
    finish)], where [finish] is the virtual time at which every client
    worker had joined.  Their traces and finish ticks pin the kernel's
    schedule. *)

val max_world_ticks : int
(** Virtual-time bound on every world of the suite.  A VC whose world
    is still running at this tick, or whose last netd run did not shut
    down cleanly, raises out of its check with the reason, which
    {!Bi_core.Vc.catch} (and so the verifier) reports as [Falsified]. *)

val rates_mixed : Bi_fault.Fault_plan.rates
(** The suite's mixed link-fault rates (drop, duplicate, reorder,
    corrupt and stall). *)

val vc_lin_faulty :
  id:string -> Bi_fault.Fault_plan.rates * int * int -> seed:int -> Bi_core.Vc.t
(** [vc_lin_faulty ~id (rates, limit, link_seed) ~seed]: the
    [nd/lin/faulty-*] VC — three client threads over a seeded
    {!Bi_fault.Faulty_link} with at most [limit] faults per direction
    must give a linearizable history. *)
