(* netd: the node's network daemon, a real kernel process that owns the
   TCP syscall surface and serves the block protocol concurrently.

   Process/IPC architecture (the Fornax netd shape on our kernel):

     acceptor thread
        | tcp_accept, parked in the kernel until a connection arrives
        v
     reader thread per connection -- frames bytes into Protocol.req
        | tcp_recv parked until bytes arrive; Req_queue.push
        v                           (futex-backed bounded queue)
     worker pool (config.workers threads) -- Req_queue.pop
        | Node_core.handle          (dedup table, degraded mode)
        v
     Usys filesystem (/blocks/<key>: crc header + value)

   No thread wakes on a clock: each parks until it has work.  A
   [Shutdown] closes the queue; the main thread joins the workers once
   it has drained, closes the connections still open and exits, and the
   kernel discards the acceptor and readers parked in their calls, as it
   does on SIGKILL.

   Every hop is a syscall: accept/recv/send on the TCP stack, futex
   wait/wake inside the queue's umutex/ucond, open/write/fsync in the
   store — so the whole request path is visible to [Sys_spec] trace
   replay, which is how the nd suite derives end-to-end results through
   the kernel contract rather than beside it.

   Concurrency discipline: [Node_core.handle] runs under one data-path
   umutex.  A put is several syscalls (the journal's write and fsync on
   its one shared fd, then the block's open with truncate, write and
   close), so two workers interleaving on one key could commit in one
   order and save in the other, or leave a longer value's tail behind a
   shorter one's header; the lock serializes the node while the
   simulated service time ([config.service_ticks], the knob the scaling
   VCs turn) is slept OUTSIDE the lock, so k workers still overlap their
   service time and the worker-scaling VCs have something to measure.

   A new epoch retires the previous run's core ([Node_core.retire]): its
   counters and dup table stay readable, but the store and journal
   closures over the dead process's syscall handle are dropped.  Dead
   runs are kept as ranges of consecutive epochs that expose the same
   observations, one record each, so a supervisor that restarts netd
   again and again keeps neither every life's I/O state nor a record
   per life; [runs] expands the ranges. *)

module K = Bi_kernel.Kernel
module U = Bi_kernel.Usys
module P = Bi_app.Protocol
module Node_core = Bi_app.Node_core
module Journal = Bi_app.Journal
module Storage_node = Bi_app.Storage_node
module Umutex = Bi_ulib.Umutex

type config = {
  port : int;
  workers : int;
  queue_capacity : int;
  service_ticks : int;
      (** Simulated per-request service time, slept outside the store
          lock — the knob of the [nd/perf/scaling-*] VCs. *)
  accept_poll_ticks : int;
      (** Not read here; kept for the benchmark's copy of netd. *)
}

let default_config =
  {
    port = Storage_node.port;
    workers = 4;
    queue_capacity = 16;
    service_ticks = 0;
    accept_poll_ticks = 1;
  }

type run = {
  run_epoch : int;
  run_core : Node_core.t;
  run_recovery : Node_core.recovery;
      (** What this (re)spawn's journal replay found and redid. *)
  served : int array;  (** Requests handled, per worker. *)
  mutable queue_high_water : int;
  mutable finished : bool;  (** Clean shutdown (not a crash). *)
}

(* Dead runs [first..last]: consecutive epochs whose runs expose the
   same observations, all but the epoch.  [proto] is the first of them,
   its core retired. *)
type dead = { first : int; mutable last : int; proto : run }

type t = {
  config : config;
  epochs : int Atomic.t;
  mutable dead : dead list;  (** Newest first. *)
  mutable latest : run option;
}

(* Everything [runs] exposes of a dead run but its epoch.  A core holds
   closures, so it is compared through its accessors. *)
let same_life a b =
  let observe c =
    ( Node_core.applied c,
      Node_core.dup_hits c,
      Node_core.checkpoints c,
      Node_core.degraded c,
      Node_core.wants_shutdown c,
      Node_core.shard_state c,
      Node_core.dump_dups c )
  in
  a.run_recovery = b.run_recovery
  && a.served = b.served
  && a.queue_high_water = b.queue_high_water
  && a.finished = b.finished
  && observe a.run_core = observe b.run_core

(* Retire a run whose process has exited.  It joins the newest range if
   it takes that range's next epoch (a spawn killed during recovery
   consumes an epoch and appends no run) and looks the same; otherwise
   it starts a range. *)
let bury t run =
  let run =
    { run with run_core = Node_core.retire run.run_core ~epoch:run.run_epoch }
  in
  match t.dead with
  | d :: _ when d.last + 1 = run.run_epoch && same_life d.proto run ->
      d.last <- run.run_epoch
  | _ ->
      let e = run.run_epoch in
      t.dead <- { first = e; last = e; proto = run } :: t.dead

let runs t =
  let expand { first; last; proto } =
    List.init (last - first + 1) (fun i ->
        let epoch = first + i in
        {
          proto with
          run_epoch = epoch;
          run_core = Node_core.retire proto.run_core ~epoch;
          served = Array.copy proto.served;
        })
  in
  List.concat_map expand (List.rev t.dead) @ Option.to_list t.latest

let latest_run t = t.latest

(* One connection's reader: accumulate bytes, frame requests, hand them
   to the queue.  Exits when the peer closes, the connection fails, or
   the queue closes under it.  [live] holds the accepted connections
   whose reader is still running. *)
let reader s ~queue ~live conn =
  let rec serve buf =
    match P.decode_req buf ~off:0 with
    | Some (req, consumed) ->
        if Req_queue.push s queue (conn, req) then
          serve (Bytes.sub buf consumed (Bytes.length buf - consumed))
    | None -> (
        match U.tcp_recv s conn with
        | Ok "" | Error _ -> ()
        | Ok chunk -> serve (Bytes.cat buf (Bytes.of_string chunk)))
  in
  serve Bytes.empty;
  live := List.filter (fun c -> c <> conn) !live;
  ignore (U.tcp_close s ~conn)

(* Accept until the listener fails (netd's exit discards this thread
   while it is parked in [tcp_accept]). *)
let rec acceptor s ~port ~queue ~live =
  match U.tcp_accept s port with
  | Ok conn ->
      live := conn :: !live;
      ignore (U.thread_create s (fun rs -> reader rs ~queue ~live conn));
      acceptor s ~port ~queue ~live
  | Error _ -> ()

let worker s ~config ~queue ~store_mutex ~core ~served i =
  let running = ref true in
  while !running do
    match Req_queue.pop s queue with
    | None -> running := false
    | Some (conn, req) ->
        (* Service time outside the lock: workers overlap here. *)
        if config.service_ticks > 0 then U.sleep s config.service_ticks;
        let resp =
          Umutex.with_lock s store_mutex (fun () -> Node_core.handle core req)
        in
        ignore (U.tcp_send s ~conn (Bytes.to_string (P.encode_resp resp)));
        served.(i) <- served.(i) + 1;
        if Node_core.wants_shutdown core && not (Req_queue.is_closed queue)
        then
          (* Remaining queued requests still drain before workers see
             [None]; close only cuts off new arrivals. *)
          Req_queue.close s queue
  done

let program t s _arg =
  let config = t.config in
  (match U.mkdir s Node_core.blocks_dir with
  | Ok () | Error Bi_kernel.Sysabi.E_exists -> ()
  | Error e ->
      U.log s
        (Format.asprintf "netd: mkdir /blocks failed: %a" Bi_kernel.Sysabi.pp_err
           e));
  let epoch = Atomic.fetch_and_add t.epochs 1 in
  let journal = Journal.create (Storage_node.usys_journal s) in
  let core = Node_core.create ~epoch ~journal (Storage_node.usys_store s) in
  (* Recover before listening: the journal left by the previous life —
     including any SIGKILL-interrupted commit — is replayed, so by the
     time a reconnecting client's retry reaches a worker the dup table
     already remembers its pre-crash ack.  The filesystem outlives the
     process, so this is an ordinary sequence of read syscalls. *)
  let recovery = Node_core.recover core in
  if recovery.r_records > 0 then
    U.log s
      (Printf.sprintf
         "netd: epoch %d recovered %d records (%d redone, %d dups)" epoch
         recovery.r_records recovery.r_redone recovery.r_dup_entries);
  let run =
    {
      run_epoch = epoch;
      run_core = core;
      run_recovery = recovery;
      served = Array.make config.workers 0;
      queue_high_water = 0;
      finished = false;
    }
  in
  (* The previous run's process has exited (see [install]), and every
     run before it was buried when its successor started. *)
  Option.iter (bury t) t.latest;
  t.latest <- Some run;
  (match U.tcp_listen s config.port with
  | Ok () -> ()
  | Error e ->
      U.log s
        (Format.asprintf "netd: listen failed: %a" Bi_kernel.Sysabi.pp_err e));
  let queue = Req_queue.create s ~capacity:config.queue_capacity in
  let store_mutex = Umutex.create s in
  let workers =
    List.init config.workers (fun i ->
        U.thread_create s (fun ws ->
            worker ws ~config ~queue ~store_mutex ~core ~served:run.served i))
  in
  U.log s (Printf.sprintf "netd: epoch %d serving with %d workers" epoch
             config.workers);
  let live = ref [] in
  ignore
    (U.thread_create s (fun as_ -> acceptor as_ ~port:config.port ~queue ~live));
  (* The workers return once a [Shutdown] has closed the queue and it has
     drained.  Close what the readers still hold, so a connected client
     sees end of stream, and exit: the kernel drops the acceptor and the
     readers where they are parked. *)
  List.iter (fun tid -> ignore (U.thread_join s tid)) workers;
  List.iter (fun conn -> ignore (U.tcp_close s ~conn)) (List.rev !live);
  run.queue_high_water <- Req_queue.high_water queue;
  run.finished <- true;
  U.log s "netd: shutdown";
  U.exit s 0

let install ?(config = default_config) kernel =
  if config.workers <= 0 then invalid_arg "Netd.install: workers";
  let t = { config; epochs = Atomic.make 0; dead = []; latest = None } in
  K.register_program kernel "netd" (program t);
  t
