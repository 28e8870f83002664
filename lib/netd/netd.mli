(** netd: the node's network daemon — a kernel process owning the TCP
    syscall surface, serving the block protocol concurrently.

    Architecture: an acceptor thread parks in [tcp_accept] until a
    connection arrives and spawns one reader thread per connection;
    readers park in [tcp_recv] until bytes arrive, frame them into
    {!Bi_app.Protocol} requests and push them onto a futex-backed
    bounded {!Req_queue}; a pool of worker threads pops requests, runs
    {!Bi_app.Node_core.handle} under a single data-path umutex (the
    Usys store is multi-syscall per operation, so concurrent same-key
    writes would tear value/crc pairs), and answers on the request's
    connection.  Simulated service time is slept {e outside} the lock,
    so worker-scaling is observable in virtual time.

    Persistence goes through [Storage_node.usys_store] and
    [usys_journal]: the store and journal code the cr suite
    crash-explores, run over the syscall backend of {!Bi_app.Files}.
    Every mutation is committed through the [/journal] redo log, and
    each (re)spawn replays it before listening, so the duplicate table —
    and with it exactly-once — survives SIGKILL.  A [Shutdown] request
    stops the daemon cleanly: the queue closes and drains, the workers
    are joined, the connections still open are closed (a connected
    client sees end of stream), and the process exits, which discards
    the acceptor and readers where they are parked, as SIGKILL does.  A
    respawn gets the next epoch (the crash-fence clients observe via
    [Ping]). *)

type config = {
  port : int;
  workers : int;
  queue_capacity : int;
  service_ticks : int;
      (** Simulated per-request service time, slept outside the store
          lock — the knob the [nd/perf/scaling-*] VCs turn to show that
          more workers finish the same load sooner. *)
  accept_poll_ticks : int;
      (** Not read by netd: its acceptor and readers park with no
          deadline.  The field stays only because the benchmark's own
          copy of netd (perfbench's [World.traced_netd]) sleeps this many
          ticks between polls, and it is deleted together with that
          copy (ROADMAP.md's benchmark item). *)
  mutant_strip_txn : bool;
      (** Seeded bug: drop txn ids before [Node_core.handle], bypassing
          the duplicate table (exactly-once must catch this). *)
}

val default_config : config
(** Port {!Bi_app.Storage_node.port}, 4 workers, queue capacity 16, no
    service time, no mutant. *)

type run = {
  run_epoch : int;
  run_core : Bi_app.Node_core.t;
  run_recovery : Bi_app.Node_core.recovery;
      (** What this (re)spawn's journal replay found and redid. *)
  served : int array;  (** Requests handled, per worker. *)
  mutable queue_high_water : int;
  mutable finished : bool;  (** Clean shutdown (not a crash). *)
}

type t
(** One installation; tracks every run (spawn) of the daemon. *)

val install : ?config:config -> Bi_kernel.Kernel.t -> t
(** Register the ["netd"] program.  Each [Spawn] of it takes the next
    epoch from this installation and appends a {!run}. *)

val runs : t -> run list
(** Oldest first. *)

val latest_run : t -> run option
