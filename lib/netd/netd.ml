(* netd: the node's network daemon, a real kernel process that owns the
   TCP syscall surface and serves the block protocol concurrently.

   Process/IPC architecture (the Fornax netd shape on our kernel):

     acceptor (main thread)
        | tcp_accept, parked in the kernel for at most accept_poll_ticks
        v
     reader thread per connection -- frames bytes into Protocol.req
        | Req_queue.push            (futex-backed bounded queue)
        v
     worker pool (config.workers threads) -- Req_queue.pop
        | Node_core.handle          (dedup table, degraded mode)
        v
     Usys filesystem (/blocks/<key> + .crc sidecar)

   Every hop is a syscall: accept/recv/send on the TCP stack, futex
   wait/wake inside the queue's umutex/ucond, open/write/fsync in the
   store — so the whole request path is visible to [Sys_spec] trace
   replay, which is how the nd suite derives end-to-end results through
   the kernel contract rather than beside it.

   Concurrency discipline: [Node_core.handle] runs under one data-path
   umutex.  The Usys store is multi-syscall per operation (open with
   truncate, write and close, for the block and its crc sidecar), so two
   workers interleaving on one key could tear a value/crc pair; the
   lock serializes the store while the simulated service time
   ([config.service_ticks], the knob the scaling benchmark turns) is
   slept OUTSIDE the lock, so k workers still overlap their service time
   and the worker-scaling VCs have something to measure. *)

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
          lock — the contention knob of the scaling benchmark. *)
  accept_poll_ticks : int;
      (** How long a netd thread stays parked in accept/recv before it
          checks [stop] again. *)
  journal : bool;
      (** Commit mutations through a [/journal] redo log and recover
          from it on (re)spawn, making the dup table crash-durable.
          Default on; the benchmark turns it off to price the appends. *)
  mutant_strip_txn : bool;
      (** Seeded bug: drop txn ids before [Node_core.handle], bypassing
          the duplicate table (exactly-once must catch this). *)
  mutant_close_signal : bool;
      (** Seeded bug: queue close signals instead of broadcasting
          (no-lost-wakeup must catch this). *)
}

let default_config =
  {
    port = Storage_node.port;
    workers = 4;
    queue_capacity = 16;
    service_ticks = 0;
    accept_poll_ticks = 1;
    journal = true;
    mutant_strip_txn = false;
    mutant_close_signal = false;
  }

type run = {
  run_epoch : int;
  run_core : Node_core.t;
  run_recovery : Node_core.recovery;
      (** What this (re)spawn's journal replay found and redid. *)
  served : int array;  (** Requests handled, per worker. *)
  mutable queue_pushed : int;
  mutable queue_popped : int;
  mutable queue_high_water : int;
  mutable finished : bool;  (** Clean shutdown (not a crash). *)
}

type t = {
  config : config;
  epochs : int Atomic.t;
  mutable runs : run list;  (** Newest first; one per (re)spawn. *)
}

let runs t = List.rev t.runs
let latest_run t = match t.runs with [] -> None | r :: _ -> Some r

(* One connection's reader: accumulate bytes, frame requests, hand them
   to the queue.  Exits when the peer closes, the daemon stops, or the
   queue closes under it. *)
let reader s ~config ~stop ~queue conn =
  let buf = ref Bytes.empty in
  let alive = ref true in
  while !alive && not !stop do
    match P.decode_req !buf ~off:0 with
    | Some (req, consumed) ->
        buf := Bytes.sub !buf consumed (Bytes.length !buf - consumed);
        if not (Req_queue.push s queue (conn, req)) then alive := false
    | None -> (
        match U.tcp_recv s ~timeout:config.accept_poll_ticks conn with
        | Ok "" -> alive := false
        | Ok chunk -> buf := Bytes.cat !buf (Bytes.of_string chunk)
        | Error Bi_kernel.Sysabi.E_again -> ()
        | Error _ -> alive := false)
  done;
  ignore (U.tcp_close s ~conn)

let worker s ~config ~stop ~queue ~store_mutex ~core ~served i =
  let running = ref true in
  while !running do
    match Req_queue.pop s queue with
    | None -> running := false
    | Some (conn, req) ->
        (* Service time outside the lock: workers overlap here. *)
        if config.service_ticks > 0 then U.sleep s config.service_ticks;
        let req = if config.mutant_strip_txn then P.strip_txn req else req in
        let resp =
          Umutex.with_lock s store_mutex (fun () -> Node_core.handle core req)
        in
        ignore (U.tcp_send s ~conn (Bytes.to_string (P.encode_resp resp)));
        served.(i) <- served.(i) + 1;
        if Node_core.wants_shutdown core && not !stop then begin
          stop := true;
          (* Remaining queued requests still drain before workers see
             [None]; close only cuts off new arrivals. *)
          Req_queue.close s queue
        end
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
  let journal =
    if config.journal then Some (Journal.create (Storage_node.usys_journal s))
    else None
  in
  let core = Node_core.create ~epoch ?journal (Storage_node.usys_store s) in
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
      queue_pushed = 0;
      queue_popped = 0;
      queue_high_water = 0;
      finished = false;
    }
  in
  t.runs <- run :: t.runs;
  (match U.tcp_listen s config.port with
  | Ok () -> ()
  | Error e ->
      U.log s
        (Format.asprintf "netd: listen failed: %a" Bi_kernel.Sysabi.pp_err e));
  let queue =
    Req_queue.create ~mutant_close_signal:config.mutant_close_signal s
      ~capacity:config.queue_capacity
  in
  let store_mutex = Umutex.create s in
  let stop = ref false in
  let workers =
    List.init config.workers (fun i ->
        U.thread_create s (fun ws ->
            worker ws ~config ~stop ~queue ~store_mutex ~core
              ~served:run.served i))
  in
  U.log s (Printf.sprintf "netd: epoch %d serving with %d workers" epoch
             config.workers);
  (* The main thread is the acceptor.  Its accept has a deadline so it
     still notices [stop] (an accept with none would strand it after
     shutdown). *)
  let readers = ref [] in
  while not !stop do
    match U.tcp_accept s ~timeout:config.accept_poll_ticks config.port with
    | Ok conn ->
        let tid =
          U.thread_create s (fun rs -> reader rs ~config ~stop ~queue conn)
        in
        readers := tid :: !readers
    | Error _ -> ()
  done;
  List.iter (fun tid -> ignore (U.thread_join s tid)) !readers;
  Req_queue.close s queue;
  List.iter (fun tid -> ignore (U.thread_join s tid)) workers;
  run.queue_pushed <- Req_queue.pushed queue;
  run.queue_popped <- Req_queue.popped queue;
  run.queue_high_water <- Req_queue.high_water queue;
  run.finished <- true;
  U.log s "netd: shutdown"

let install ?(config = default_config) kernel =
  if config.workers <= 0 then invalid_arg "Netd.install: workers";
  (* 0 would mean no deadline, and a thread parked with none would never
     see [stop]. *)
  if config.accept_poll_ticks <= 0 then
    invalid_arg "Netd.install: accept_poll_ticks";
  let t = { config; epochs = Atomic.make 0; runs = [] } in
  K.register_program kernel "netd" (program t);
  t
