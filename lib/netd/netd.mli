(** netd: the node's network daemon — a kernel process owning the TCP
    syscall surface, serving the block protocol concurrently.

    Architecture: an acceptor thread polls [tcp_accept] and spawns one
    reader thread per connection; readers frame bytes into
    {!Bi_app.Protocol} requests and push them onto a futex-backed
    bounded {!Req_queue}; a pool of worker threads pops requests, runs
    {!Bi_app.Node_core.handle} under a single data-path umutex (the
    Usys store is multi-syscall per operation, so concurrent same-key
    writes would tear value/crc pairs), and answers on the request's
    connection.  Simulated service time is slept {e outside} the lock,
    so worker-scaling is observable in virtual time.

    Persistence goes through [Storage_node.usys_store] and
    [usys_journal]: the store and journal code the cr suite
    crash-explores, run over the syscall backend of {!Bi_app.Files}.  A
    [Shutdown] request stops the daemon cleanly: the queue drains, every
    thread is joined, and the process exits — a respawn gets the next
    epoch (the crash-fence clients observe via [Ping]). *)

type config = {
  port : int;
  workers : int;
  queue_capacity : int;
  service_ticks : int;
      (** Simulated per-request service time, slept outside the store
          lock — the contention knob of the scaling benchmark. *)
  accept_poll_ticks : int;
      (** How long, in ticks, a netd thread (the acceptor, or a
          connection's reader) stays parked in [tcp_accept]/[tcp_recv]
          before it checks [stop] again.  At least 1: {!install} rejects
          anything less. *)
  journal : bool;
      (** Commit mutations through a [/journal] redo log
          ({!Bi_app.Storage_node.usys_journal}, the journal file sink
          the cr suite crash-explores) and recover from it on
          (re)spawn, making the duplicate table — and with it
          exactly-once — crash-durable across SIGKILL.  Default on; the
          benchmark turns it off to price the appends. *)
  mutant_strip_txn : bool;
      (** Seeded bug: drop txn ids before [Node_core.handle], bypassing
          the duplicate table (exactly-once must catch this). *)
  mutant_close_signal : bool;
      (** Seeded bug: queue close signals instead of broadcasting
          (no-lost-wakeup must catch this). *)
}

val default_config : config
(** Port {!Bi_app.Storage_node.port}, 4 workers, queue capacity 16, no
    service time, journal on, no mutants. *)

type run = {
  run_epoch : int;
  run_core : Bi_app.Node_core.t;
  run_recovery : Bi_app.Node_core.recovery;
      (** What this (re)spawn's journal replay found and redid. *)
  served : int array;  (** Requests handled, per worker. *)
  mutable queue_pushed : int;
  mutable queue_popped : int;
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
