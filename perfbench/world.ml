(* Two-machine worlds on the real kernel path.

   The server kernel runs netd (or, in the traced run, [traced_netd], the
   same program with the benchmark's wrappers around the store, journal
   and node core); the client kernel runs one client process whose kernel
   threads are the closed-loop connections.  Both kernels share one host
   domain and one virtual clock, so CPU work costs no ticks: CPU time is
   the host cost of the path, virtual time is its protocol cost.

   A world runs set-up (boot both kernels, start netd, wait for its first
   Pong, then the workload's preload), then the measured phase, then
   shuts netd down.  Everything the measured phase observes is collected
   into a [result]; the correctness oracles run on it after the kernels
   have stopped. *)

module K = Bi_kernel.Kernel
module U = Bi_kernel.Usys
module Sysabi = Bi_kernel.Sysabi
module P = Bi_app.Protocol
module RC = Bi_app.Resilient_client
module NC = Bi_app.Node_core
module SN = Bi_app.Storage_node
module Journal = Bi_app.Journal
module Netd = Bi_netd.Netd
module Nd_client = Bi_netd.Nd_client
module Req_queue = Bi_netd.Req_queue
module Umutex = Bi_ulib.Umutex
module Fs = Bi_fs.Fs
module Pkt = Bi_net.Pkt

let server_ip = Bi_net.Ip.addr_of_string "10.0.0.1"
let client_ip = Bi_net.Ip.addr_of_string "10.0.0.2"

(* The load shape: 2 closed-loop connections with no think time, 64 keys,
   64-byte values, netd's default configuration (4 workers, queue 16,
   journal on, 32 KiB checkpoint). *)
let conns = 2
let nkeys = 64
let value_bytes = 64
let config = Netd.default_config
let checkpoint_bytes = 32 * 1024

(* The restart preload writes the smallest values, so the journal holds
   as many records as fit under the checkpoint threshold: the longest
   replay a netd node can face. *)
let restart_value_bytes = 8

let key i = Printf.sprintf "k%02d" i

let pad n s =
  if String.length s >= n then String.sub s 0 n
  else s ^ String.make (n - String.length s) '.'

let preload_value ~seed i = pad value_bytes (Printf.sprintf "pre-%d-%d-" seed i)

type workload = Put | Get | Restart
type stop = Setup_only | Ops of int | For of float  (** seconds *)

type node = {
  epoch : int;
  core : NC.t;
  recovery : NC.recovery;
  served : int array;
  mutable high_water : int;
}

(* Samples in a growable buffer outside the OCaml heap, so a longer run
   does not grow the heap it is measuring. *)
module Fbuf = struct
  module A = Bigarray.Array1

  type t = {
    mutable a : (float, Bigarray.float64_elt, Bigarray.c_layout) A.t;
    mutable n : int;
  }

  let alloc n = A.create Bigarray.float64 Bigarray.c_layout n
  let create () = { a = alloc 1024; n = 0 }

  let push b x =
    if b.n = A.dim b.a then begin
      let a = alloc (2 * b.n) in
      A.blit b.a (A.sub a 0 b.n);
      b.a <- a
    end;
    A.set b.a b.n x;
    b.n <- b.n + 1

  let to_list b = List.init b.n (A.get b.a)
end

type result = {
  mutable setup_at : float;  (** When set-up began. *)
  mutable setup_s : float;
  lat_us : Fbuf.t;  (** One sample per call or restart. *)
  ends : Fbuf.t;  (** When each sample completed. *)
  mutable attempted : int;
  mutable acked : int;
  mutable failed : int;
  mutable elapsed_s : float;  (** CPU seconds of the measured phase. *)
  mutable wall_s : float;  (** Its wall seconds. *)
  mutable live_mb : float;
      (** Live major heap after a full collection, taken when the
          measured phase ends and both kernels are still up. *)
  mutable t_start : float;
  mutable ticks : int;
  mutable rc_ops : int;
  mutable rc_attempts : int;
  mutable disk_io : int;
  mutable copied_bytes : int;
  mutable copies : int;
  maxinv : int array;  (** Per key: the latest put invocation. *)
  cands : (int * string) list array;
      (** Per key: [(ack, value)] of the acked puts that no later put
          started after. *)
  mutable trace_server : (int * Sysabi.request * Sysabi.response) list;
  mutable trace_client : (int * Sysabi.request * Sysabi.response) list;
  mutable probe_save : int;
  mutable probe_load : int;
  mutable fs_used_bytes : int;
  mutable nodes : node list;  (** Oldest first. *)
  mutable preload : string array;
  mutable contents_at_setup : (string * string) list;
  mutable contents : (string * string) list;
  mutable errors : string list;
}

let fresh_result () =
  {
    setup_at = 0.;
    setup_s = 0.;
    lat_us = Fbuf.create ();
    ends = Fbuf.create ();
    attempted = 0;
    acked = 0;
    failed = 0;
    elapsed_s = 0.;
    wall_s = 0.;
    live_mb = 0.;
    t_start = 0.;
    ticks = 0;
    rc_ops = 0;
    rc_attempts = 0;
    disk_io = 0;
    copied_bytes = 0;
    copies = 0;
    maxinv = Array.make nkeys 0;
    cands = Array.make nkeys [];
    trace_server = [];
    trace_client = [];
    probe_save = 0;
    probe_load = 0;
    fs_used_bytes = 0;
    nodes = [];
    preload = [||];
    contents_at_setup = [];
    contents = [];
    errors = [];
  }

(* ------------------------------------------------------------------ *)
(* The traced server                                                   *)

(* netd builds its [Node_core] inside its own program, so the traced run
   registers this copy of it: the same acceptor, reader threads,
   [Req_queue], worker pool and data-path mutex, calling exactly what
   netd calls, with the store, journal sink, [handle] and [recover]
   wrapped in spans. *)
let reader s ~stop ~queue conn =
  let buf = ref Bytes.empty in
  let alive = ref true in
  while !alive && not !stop do
    match P.decode_req !buf ~off:0 with
    | Some (req, used) ->
        buf := Bytes.sub !buf used (Bytes.length !buf - used);
        if not (Req_queue.push s queue (conn, req)) then alive := false
    | None -> (
        match U.tcp_recv s ~blocking:false conn with
        | Ok "" -> alive := false
        | Ok chunk -> buf := Bytes.cat !buf (Bytes.of_string chunk)
        | Error Sysabi.E_again -> U.sleep s 1
        | Error _ -> alive := false)
  done;
  ignore (U.tcp_close s ~conn)

let restart_parent = ref 0

let traced_netd ~nodes s _arg =
  ignore (U.mkdir s "/blocks");
  let epoch = List.length !nodes in
  let journal = Journal.create (Spans.sink (SN.usys_journal s)) in
  let core = NC.create ~epoch ~journal (Spans.store (SN.usys_store s)) in
  let recovery =
    Spans.server_span ~parent:!restart_parent "recover" (fun () ->
        NC.recover core)
  in
  let node =
    { epoch; core; recovery; served = Array.make config.workers 0; high_water = 0 }
  in
  nodes := !nodes @ [ node ];
  ignore (U.tcp_listen s config.port);
  let queue = Req_queue.create s ~capacity:config.queue_capacity in
  let mutex = Umutex.create s in
  let stop = ref false in
  let worker ws i =
    let running = ref true in
    while !running do
      match Req_queue.pop ws queue with
      | None -> running := false
      | Some (conn, req) ->
          let resp = Umutex.with_lock ws mutex (fun () -> Spans.handle core req) in
          ignore (U.tcp_send ws ~conn (Bytes.to_string (P.encode_resp resp)));
          node.served.(i) <- node.served.(i) + 1;
          if NC.wants_shutdown core && not !stop then begin
            stop := true;
            Req_queue.close ws queue
          end
    done
  in
  let workers =
    List.init config.workers (fun i -> U.thread_create s (fun ws -> worker ws i))
  in
  let readers = ref [] in
  while not !stop do
    match U.tcp_accept s ~blocking:false config.port with
    | Ok conn ->
        readers := U.thread_create s (fun rs -> reader rs ~stop ~queue conn) :: !readers
    | Error _ -> U.sleep s config.accept_poll_ticks
  done;
  List.iter (fun tid -> ignore (U.thread_join s tid)) !readers;
  Req_queue.close s queue;
  List.iter (fun tid -> ignore (U.thread_join s tid)) workers;
  node.high_water <- Req_queue.high_water queue

(* ------------------------------------------------------------------ *)
(* Restart supervisor                                                  *)

type ctl = {
  mutable kill_req : bool;
  mutable respawns : int;
  mutable killed_at : float;
  mutable span : Spans.span;
  mutable finished : bool;
}

(* Spawns netd, then SIGKILLs and respawns it whenever the client asks;
   the kill time is the start of the restart the client times. *)
let supervisor ~prog ctl s _arg =
  let spawn () = match U.spawn s ~prog ~arg:"" with Ok pid -> pid | Error _ -> -1 in
  let pid = ref (spawn ()) in
  while not ctl.finished do
    if ctl.kill_req then begin
      ctl.kill_req <- false;
      ctl.span <- Spans.open_ ~parent:0 "restart";
      restart_parent := ctl.span.sid;
      ctl.killed_at <- Spans.now ();
      ignore (U.kill s ~pid:!pid ~signal:9);
      ignore (U.wait s !pid);
      pid := spawn ();
      ctl.respawns <- ctl.respawns + 1
    end
    else U.sleep s 1
  done;
  ignore (U.wait s !pid)

(* ------------------------------------------------------------------ *)
(* Client side                                                         *)

let rec ping_until s net ~epoch ~tries =
  tries > 0
  &&
  match Nd_client.rpc net P.Ping with
  | Ok (P.Pong { epoch = e; _ }) when e = epoch -> true
  | _ ->
      U.sleep s 1;
      ping_until s net ~epoch ~tries:(tries - 1)

let shutdown s net =
  let rec go tries =
    if tries > 0 then
      match Nd_client.rpc net P.Shutdown with
      | Ok P.Done -> ()
      | _ ->
          U.sleep s 5;
          go (tries - 1)
  in
  go 200;
  Nd_client.close net

let rc_config ~seed ~cid = { RC.default_config with seed = (seed * 1009) + cid }

(* The rpc endpoint, wrapped in spans only in a traced world: [current]
   is the span the next attempts nest under. *)
let endpoint ~traced ~current net =
  let ep = Nd_client.endpoint net in
  if traced then Spans.endpoint ~current ep else ep

let client s ~traced ~seed ~cid ~current =
  let net = Nd_client.make s ~ip:server_ip () in
  let ep = endpoint ~traced ~current net in
  (net, RC.create ~config:(rc_config ~seed ~cid) ~client:cid (Nd_client.clock s) ep)

let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. (1024. *. 1024.)

let journal_size fs =
  match Fs.stat fs "/journal" with Ok st -> st.Fs.size | Error _ -> 0

type world = {
  workload : workload;
  seed : int;
  stop : stop;
  traced : bool;  (** Traced netd copy + spans. *)
  ktrace : bool;  (** Kernel syscall trace and store probe. *)
  server : K.t;
  clients : K.t;
  res : result;
  ctl : ctl;
  mutable lclock : int;
  mutable probe_done : bool;
  mutable deadline : float;  (** CPU seconds. *)
  mutable wall_deadline : float;
}

let continue_ w n =
  match w.stop with
  | Setup_only -> false
  | Ops max -> n < max
  | For _ -> Spans.now () < w.deadline && Spans.wall () < w.wall_deadline

let tick w =
  w.lclock <- w.lclock + 1;
  w.lclock

let preload w s =
  let net, rc = client s ~traced:false ~seed:w.seed ~cid:100 ~current:(ref 0) in
  let fail msg = w.res.errors <- msg :: w.res.errors in
  (match w.workload with
  | Put -> ()
  | Get ->
      w.res.preload <- Array.init nkeys (fun i -> preload_value ~seed:w.seed i);
      Array.iteri
        (fun i v ->
          match RC.put rc ~key:(key i) ~value:v with
          | Ok () -> ()
          | Error e -> fail (Format.asprintf "preload %d: %a" i RC.pp_error e))
        w.res.preload
  | Restart ->
      (* Fill the journal to just below the checkpoint threshold: stop
         once one more record of the last size would reach it. *)
      let fs = K.fs w.server in
      let rec fill i prev =
        let v = pad restart_value_bytes (Printf.sprintf "%d-%d" w.seed i) in
        match RC.put rc ~key:(key (i mod nkeys)) ~value:v with
        | Error e -> fail (Format.asprintf "fill %d: %a" i RC.pp_error e)
        | Ok () ->
            let size = journal_size fs in
            if size < prev then fail "journal checkpointed during fill"
            else if size + (size - prev) < checkpoint_bytes && i < 100_000 then
              fill (i + 1) size
      in
      fill 0 0);
  Nd_client.close net

let closed_loop w s =
  let body ts idx =
    let cid = idx + 1 in
    let current = ref 0 in
    let net, rc = client ts ~traced:w.traced ~seed:w.seed ~cid ~current in
    let rng = Random.State.make [| w.seed; cid |] in
    let n = ref 0 in
    while continue_ w !n do
      incr n;
      let k = Random.State.int rng nkeys in
      let t0 = Spans.now () in
      let op = Spans.open_ ~parent:0 "op" in
      current := op.sid;
      let ok =
        match w.workload with
        | Put -> (
            let v = pad value_bytes (Printf.sprintf "%d-%d-%d-" w.seed cid !n) in
            let inv = tick w in
            let r = w.res in
            r.maxinv.(k) <- inv;
            r.cands.(k) <- List.filter (fun (ack, _) -> ack > inv) r.cands.(k);
            match RC.put rc ~key:(key k) ~value:v with
            | Ok () ->
                r.cands.(k) <- (tick w, v) :: r.cands.(k);
                true
            | Error _ -> false)
        | Get | Restart -> (
            match RC.get rc ~key:(key k) with
            | Ok (Some v) -> v = w.res.preload.(k)
            | Ok None | Error _ -> false)
      in
      Spans.close op;
      let t1 = Spans.now () in
      Fbuf.push w.res.lat_us (1e6 *. (t1 -. t0));
      Fbuf.push w.res.ends t1;
      w.res.attempted <- w.res.attempted + 1;
      if ok then w.res.acked <- w.res.acked + 1 else w.res.failed <- w.res.failed + 1
    done;
    let st = RC.stats rc in
    w.res.rc_ops <- w.res.rc_ops + st.RC.ops;
    w.res.rc_attempts <- w.res.rc_attempts + st.RC.attempts;
    Nd_client.close net
  in
  let tids = List.init conns (fun i -> U.thread_create s (fun ts -> body ts i)) in
  List.iter (fun tid -> ignore (U.thread_join s tid)) tids

(* SIGKILL netd, respawn it, and time from the kill to the first Pong of
   the new epoch, on a fresh connection (the killed daemon's sockets are
   never closed, so the old connection would only time out). *)
let restarts w s =
  let net = Nd_client.make ~attempt_ticks:50 s ~ip:server_ip () in
  let current = ref 0 in
  let ep = endpoint ~traced:w.traced ~current net in
  let n = ref 0 in
  while continue_ w !n do
    incr n;
    let epoch = w.ctl.respawns + 1 in
    w.ctl.kill_req <- true;
    while w.ctl.respawns < epoch do
      U.sleep s 1
    done;
    Nd_client.close net;
    current := w.ctl.span.sid;
    let rec ping tries =
      tries > 0
      &&
      match ep.RC.rpc P.Ping with
      | Ok (P.Pong { epoch = e; _ }) when e = epoch -> true
      | _ ->
          U.sleep s 1;
          ping (tries - 1)
    in
    let ok = ping 1000 in
    let t1 = Spans.now () in
    Spans.close w.ctl.span;
    Fbuf.push w.res.lat_us (1e6 *. (t1 -. w.ctl.killed_at));
    Fbuf.push w.res.ends t1;
    w.res.attempted <- w.res.attempted + 1;
    if ok then w.res.acked <- w.res.acked + 1 else w.res.failed <- w.res.failed + 1
  done;
  Nd_client.close net

(* Count the syscalls of one [usys_store] save and one load, alone on the
   server kernel, between [Log] markers in the kernel trace. *)
let probe w s _arg =
  let st = SN.usys_store s in
  let value = pad value_bytes "probe" in
  let v = { NC.value; crc = P.crc32 value } in
  ignore (st.NC.save "probe" v);
  U.log s "probe:save";
  ignore (st.NC.save "probe" v);
  U.log s "probe:load";
  ignore (st.NC.load "probe");
  U.log s "probe:end";
  ignore (st.NC.remove "probe");
  w.probe_done <- true

let client_main w boot_start s _arg =
  let r = w.res in
  let net = Nd_client.make ~attempt_ticks:50 s ~ip:server_ip () in
  if not (ping_until s net ~epoch:0 ~tries:1000) then
    r.errors <- "netd never answered" :: r.errors;
  preload w s;
  r.contents_at_setup <-
    (if w.workload = Restart then NC.mem_contents (NC.fs_store (K.fs w.server))
     else []);
  r.setup_s <- Spans.now () -. boot_start;
  if w.stop <> Setup_only then begin
    let disk = (K.machine w.server).Bi_hw.Machine.disk in
    let io0 = Bi_hw.Device.Disk.io_count disk in
    Pkt.reset_copy_stats ();
    let tick0 = U.now s in
    if w.ktrace then begin
      K.set_trace w.server true;
      K.set_trace w.clients true
    end;
    Spans.enabled := w.traced;
    let t0 = Spans.now () and w0 = Spans.wall () in
    r.t_start <- t0;
    (* The phase lasts [secs] of CPU time, and at most twice that of
       wall time, however little of the host this process gets. *)
    (match w.stop with
    | For secs ->
        w.deadline <- t0 +. secs;
        w.wall_deadline <- w0 +. (2. *. secs)
    | _ -> ());
    (match w.workload with Put | Get -> closed_loop w s | Restart -> restarts w s);
    r.elapsed_s <- Spans.now () -. t0;
    r.wall_s <- Spans.wall () -. w0;
    Spans.enabled := false;
    r.ticks <- Int64.to_int (Int64.sub (U.now s) tick0);
    r.copied_bytes <- Pkt.copied_bytes ();
    r.copies <- Pkt.copies ();
    r.disk_io <- Bi_hw.Device.Disk.io_count disk - io0;
    r.live_mb <- live_mb ();
    if w.ktrace then begin
      r.trace_server <- K.trace w.server;
      r.trace_client <- K.trace w.clients;
      let seen = List.length r.trace_server in
      K.register_program w.server "store-probe" (probe w);
      (match K.spawn w.server ~prog:"store-probe" ~arg:"" with
      | Ok _ ->
          while not w.probe_done do
            U.sleep s 1
          done
      | Error _ -> r.errors <- "store probe did not start" :: r.errors);
      let rec drop n l =
        match l with _ :: t when n > 0 -> drop (n - 1) t | _ -> l
      in
      let between a b =
        let rec skip = function
          | [] -> []
          | (_, Sysabi.Log m, _) :: t when m = a -> t
          | _ :: t -> skip t
        in
        let rec upto acc = function
          | [] -> acc
          | (_, Sysabi.Log m, _) :: _ when m = b -> acc
          | _ :: t -> upto (acc + 1) t
        in
        upto 0 (skip (drop seen (K.trace w.server)))
      in
      r.probe_save <- between "probe:save" "probe:load";
      r.probe_load <- between "probe:load" "probe:end";
      K.set_trace w.server false;
      K.set_trace w.clients false
    end
  end;
  w.ctl.finished <- true;
  shutdown s net

let run ~workload ~seed ~stop ~traced ~ktrace =
  let boot_start = Spans.now () in
  let server = K.create ~ip:server_ip () in
  let clients = K.create ~ip:client_ip () in
  K.connect server clients;
  let free0 = Fs.free_data_blocks (K.fs server) in
  let res = fresh_result () in
  res.setup_at <- boot_start;
  let w =
    {
      workload;
      seed;
      stop;
      traced;
      ktrace;
      server;
      clients;
      res;
      ctl =
        {
          kill_req = false;
          respawns = 0;
          killed_at = 0.;
          span = Spans.none;
          finished = false;
        };
      lclock = 0;
      probe_done = false;
      deadline = 0.;
      wall_deadline = 0.;
    }
  in
  let traced_nodes = ref [] in
  let real = if traced then None else Some (Netd.install ~config server) in
  let prog =
    if traced then begin
      K.register_program server "netd-traced" (traced_netd ~nodes:traced_nodes);
      "netd-traced"
    end
    else "netd"
  in
  (match workload with
  | Restart ->
      K.register_program server "supervisor" (supervisor ~prog w.ctl);
      ignore (K.spawn server ~prog:"supervisor" ~arg:"")
  | Put | Get -> ignore (K.spawn server ~prog ~arg:""));
  K.register_program clients "client-main" (client_main w boot_start);
  ignore (K.spawn clients ~prog:"client-main" ~arg:"");
  restart_parent := 0;
  Spans.inflight := [];
  (try K.run_pair server clients
   with K.Deadlock msg -> w.res.errors <- ("deadlock: " ^ msg) :: w.res.errors);
  Spans.enabled := false;
  let r = w.res in
  r.nodes <-
    (match real with
    | None -> !traced_nodes
    | Some netd ->
        List.map
          (fun (run : Netd.run) ->
            {
              epoch = run.run_epoch;
              core = run.run_core;
              recovery = run.run_recovery;
              served = run.served;
              high_water = run.queue_high_water;
            })
          (Netd.runs netd));
  let fs = K.fs server in
  r.contents <- NC.mem_contents (NC.fs_store fs);
  r.fs_used_bytes <- (free0 - Fs.free_data_blocks fs) * Bi_fs.Block_dev.block_size;
  r.errors <- List.rev r.errors;
  r

(* ------------------------------------------------------------------ *)
(* Correctness oracles                                                 *)

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

(* Each oracle is a named check; a failed one fails the run. *)
let oracles workload ~seed (r : result) =
  let ok name b = (name, b) in
  let applied = sum (fun n -> NC.applied n.core) r.nodes in
  let dup_hits = sum (fun n -> NC.dup_hits n.core) r.nodes in
  let common = [ ok "no harness errors" (r.errors = []) ] in
  match workload with
  | Put ->
      (* The durable value of each key is that of a put no other put to
         the key started after: with two clients, either of two
         overlapping puts may land last. *)
      let durable_ok =
        List.for_all
          (fun (k, v) ->
            match int_of_string_opt (String.sub k 1 (String.length k - 1)) with
            | Some i when i >= 0 && i < nkeys ->
                List.exists (fun (_, cv) -> cv = v) r.cands.(i)
            | _ -> false)
          r.contents
        && List.length r.contents
           = Array.fold_left (fun a l -> if l = [] then a else a + 1) 0 r.cands
      in
      common
      @ [
          ok "acked puts = Node_core.applied" (r.acked = applied);
          ok "dup_hits = 0" (dup_hits = 0);
          ok "durable store holds the last acked value of every key" durable_ok;
        ]
  | Get ->
      common
      @ [
          ok "every get returned its preloaded value" (r.failed = 0);
          ok "durable store = preload"
            (r.contents
            = List.sort compare
                (List.init nkeys (fun i -> (key i, preload_value ~seed i))));
        ]
  | Restart -> (
      match r.nodes with
      | [] -> [ ok "netd ran" false ]
      | _ :: respawns ->
          let epochs_ok = List.for_all Fun.id (List.mapi (fun i n -> n.epoch = i) r.nodes) in
          let same f =
            match respawns with
            | [] -> true
            | x :: t -> List.for_all (fun y -> f y = f x) t
          in
          common
          @ [
              ok "every respawn took the next epoch" epochs_ok;
              ok "respawns replayed the same records"
                (same (fun n ->
                     let rc = n.recovery in
                     (rc.NC.r_records, rc.NC.r_redone, rc.NC.r_dup_entries))
                && List.for_all
                     (fun n ->
                       let rc = n.recovery in
                       rc.NC.r_records > 0 && rc.NC.r_store_failures = 0
                       && (not rc.NC.r_torn_tail) && not rc.NC.r_journal_error)
                     respawns);
              ok "dump_dups identical across restarts" (same (fun n -> NC.dump_dups n.core));
              ok "store contents identical across restarts"
                (r.contents_at_setup <> [] && r.contents = r.contents_at_setup);
            ])

(* ------------------------------------------------------------------ *)
(* Syscall kinds                                                       *)

let kind : Sysabi.request -> string = function
  | Getpid -> "getpid"
  | Gettid -> "gettid"
  | Yield -> "yield"
  | Exit _ -> "exit"
  | Spawn _ -> "spawn"
  | Wait _ -> "wait"
  | Kill _ -> "kill"
  | Mmap _ -> "mmap"
  | Munmap _ -> "munmap"
  | Mresolve _ -> "mresolve"
  | Open _ -> "open"
  | Close _ -> "close"
  | Read _ -> "read"
  | Write _ -> "write"
  | Seek _ -> "seek"
  | Fstat _ -> "fstat"
  | Mkdir _ -> "mkdir"
  | Unlink _ -> "unlink"
  | Rmdir _ -> "rmdir"
  | Readdir _ -> "readdir"
  | Fsync _ -> "fsync"
  | Thread_create _ -> "thread_create"
  | Thread_join _ -> "thread_join"
  | Futex_wait _ -> "futex_wait"
  | Futex_wake _ -> "futex_wake"
  | Udp_bind _ -> "udp_bind"
  | Udp_send _ -> "udp_send"
  | Udp_recv _ -> "udp_recv"
  | Tcp_listen _ -> "tcp_listen"
  | Tcp_connect _ -> "tcp_connect"
  | Tcp_accept _ -> "tcp_accept"
  | Tcp_send _ -> "tcp_send"
  | Tcp_recv _ -> "tcp_recv"
  | Tcp_close _ -> "tcp_close"
  | Pipe -> "pipe"
  | Mprotect _ -> "mprotect"
  | Rename _ -> "rename"
  | Log _ -> "log"
  | Sleep _ -> "sleep"
  | Now -> "now"

(* A poll is a non-blocking [tcp_recv]/[tcp_accept]; it is wasted work
   when it answers [E_again]. *)
let poll_outcome (_, req, resp) =
  match (req, resp) with
  | (Sysabi.Tcp_recv { blocking = false; _ } | Sysabi.Tcp_accept { blocking = false; _ }), r ->
      Some (r = Sysabi.R_err Sysabi.E_again)
  | _ -> None

(* [(pid, [(kind, count)])], kinds by descending count. *)
let histogram trace =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (pid, req, _) ->
      let k = (pid, kind req) in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    trace;
  let pids = List.sort_uniq compare (List.map (fun (p, _, _) -> p) trace) in
  List.map
    (fun pid ->
      let kinds =
        Hashtbl.fold (fun (p, k) n acc -> if p = pid then (k, n) :: acc else acc) tbl []
      in
      (pid, List.sort (fun (ka, a) (kb, b) -> compare (b, ka) (a, kb)) kinds))
    pids
