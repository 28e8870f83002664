(* The [nd] verify suite: end-to-end correctness of netd, derived
   through the process-centric syscall state machine.

   The worlds here are real: two kernels (server and client machines),
   netd as a spawned server process with an acceptor, reader threads and
   a futex-queue worker pool; client processes talking kernel TCP via
   [Resilient_client].  The obligations:

   - end-to-end exactly-once and per-key linearizability of the
     client-observable history, under a quiet wire, a seeded faulty NIC
     ([Faulty_link] interposed on the two machines' NICs), and netd
     crash ([Kill] mid-serve) + respawn with the epoch fence;
   - the interleaved multi-process syscall traces of those same runs
     replayed against [Sys_spec] (the kernel honoured its contract while
     the application result was being produced);
   - no lost wakeups on the worker queue: [Req_queue]'s own code under
     [Explore] (schedule exhaustion) and live on the kernel
     (adversarial arrival orders must terminate);
   - worker no-starvation and multi-worker scaling in virtual time;
   - Checked≡Erased contract parity;
   - mutation self-checks: the queue over an unchecked futex wait,
     wake(1) where broadcast is needed (explored and live), and a dedup
     bypass on the netd path must each be caught;
   - [Sysabi] marshalling totality under [Fault_plan.corrupt_bytes] and
     strict-prefix rejection (the satellite fuzz obligations live here
     because they need [bi_fault], which sits above [bi_kernel]). *)

module K = Bi_kernel.Kernel
module U = Bi_kernel.Usys
module Sysabi = Bi_kernel.Sysabi
module Sys_spec = Bi_kernel.Sys_spec
module P = Bi_app.Protocol
module RC = Bi_app.Resilient_client
module Node_core = Bi_app.Node_core
module KV = Bi_app.Store_spec
module FP = Bi_fault.Fault_plan
module FL = Bi_fault.Faulty_link
module E = Bi_core.Explore
module Vc = Bi_core.Vc
module Gen = Bi_core.Gen
module Contract = Bi_core.Contract

let server_ip = Bi_net.Ip.addr_of_string "10.0.0.1"
let client_ip = Bi_net.Ip.addr_of_string "10.0.0.2"

(* ================================================================== *)
(* Linearizability checking                                            *)

(* Histories are checked against the one key-value specification,
   {!Bi_app.Store_spec}, with exact returns only: the respawned daemon
   recovers its duplicate table from its journal, so every call — even
   one whose retries straddle a netd crash — must match the sequential
   spec exactly.

   Timestamps are kernel virtual time; [res > inv] strictly, as the
   checker requires.  The record is an ordinary OCaml value — threads of
   every simulated process share the harness heap, which is exactly what
   lets us observe a cross-process history without adding syscalls. *)
let record rc sys = KV.record rc ~now:(fun () -> Int64.to_int (U.now sys))

(* ================================================================== *)
(* World harness                                                       *)

let patient_config ~seed =
  {
    RC.max_attempts = 12;
    backoff_base = 2;
    backoff_cap = 16;
    jitter_pm = 1;
    breaker_threshold = 10_000;
    breaker_cooldown = 50;
    deadline = 6_000;
    seed;
  }

(* Ping netd until it reports [epoch >= after_epoch], then deliver
   [Shutdown] until acknowledged — both loops retried because the wire
   may be faulty and the daemon may be mid-restart.  Gating on the epoch
   keeps a crash world's shutdown from landing on the first incarnation
   (which the supervisor is about to kill anyway). *)
let shutdown ?(after_epoch = 0) ?(attempt_ticks = 120) s =
  let net = Nd_client.make ~attempt_ticks s ~ip:server_ip () in
  let rec wait_epoch tries =
    if tries > 0 then
      match Nd_client.rpc net P.Ping with
      | Ok (P.Pong { epoch; _ }) when epoch >= after_epoch -> ()
      | _ ->
          U.sleep s 10;
          wait_epoch (tries - 1)
  in
  wait_epoch 200;
  let rec send tries =
    if tries > 0 then
      match Nd_client.rpc net P.Shutdown with
      | Ok P.Done -> ()
      | _ ->
          U.sleep s 10;
          send (tries - 1)
  in
  send 200;
  Nd_client.close net

(* Spawn [threads] kernel threads running [body ts index] and join them
   all; returns the virtual time at which the last one finished. *)
let spawn_clients s ~threads ~body =
  let tids = List.init threads (fun i -> U.thread_create s (fun ts -> body ts i)) in
  List.iter (fun tid -> ignore (U.thread_join s tid)) tids;
  Int64.to_int (U.now s)

type world_out = {
  w_netd : Netd.t;
  w_server : K.t;
  w_client : K.t;
  w_finish : int;  (** Virtual time when every client worker had joined. *)
}

(* Every world of this suite stops well inside this many ticks of
   virtual time (the slowest pinned one stops at tick 331).  In a world
   whose shutdown never lands, netd stays parked in its accept and recvs
   with no deadline: the world sits idle, and the kernel would report a
   deadlock only after its idle bound, without saying why.  [run_world]
   cuts a world still running at this tick. *)
let max_world_ticks = 20_000

(* A world that was cut, or whose last netd run did not shut down
   cleanly.  It escapes the VC, and the verifier's [Vc.catch] reports it
   as [Falsified] with this reason. *)
exception Unfinished of string

let () =
  Printexc.register_printer (function
    | Unfinished why -> Some why
    | _ -> None)

(* Build and run a two-machine world to completion.  [faults] interposes
   a seeded [Faulty_link] on the (unconnected) NICs, fed by [run_pair]'s
   [on_tick] so transmitted frames are harvested before the idle-tick
   delivery pass would discard them.  [crash] runs netd under a
   supervisor that kills it at [kill_at] ticks and respawns it
   [down_ticks] later.  [client_body ts proc] runs in [threads] kernel
   threads of one client process; the main client thread then sends the
   (epoch-gated) shutdown.  The same [on_tick] enforces
   [max_world_ticks]; it only reads the clock, so it adds no syscall
   and moves no schedule. *)
let run_world ?(config = Netd.default_config) ?faults ?crash ?(trace = false)
    ?(threads = 3) ~client_body () =
  let server = K.create ~ip:server_ip () in
  let client = K.create ~ip:client_ip () in
  let netd = Netd.install ~config server in
  if trace then begin
    K.set_trace server true;
    K.set_trace client true
  end;
  let step_link =
    match faults with
    | None ->
        K.connect server client;
        ignore
    | Some (rates, limit, seed) ->
        let plan dir i =
          FP.seeded ~name:("nd/link/" ^ dir) ~seed:(seed + i) ~rates ~limit ()
        in
        let link =
          FL.link ~plan_ab:(plan "ab" 0) ~plan_ba:(plan "ba" 1)
            (K.machine server).Bi_hw.Machine.nic
            (K.machine client).Bi_hw.Machine.nic
        in
        fun () -> ignore (FL.step_link link)
  in
  let finish = ref 0 in
  let timer = (K.machine server).Bi_hw.Machine.timer in
  let on_tick () =
    let now = Int64.to_int (Bi_hw.Device.Timer.now timer) in
    if now >= max_world_ticks then
      raise
        (Unfinished
           (Printf.sprintf "world cut at tick %d: netd never shut down (%s)"
              now
              (if !finish = 0 then "clients still running"
               else Printf.sprintf "clients done at tick %d" !finish)));
    step_link ()
  in
  (match crash with
  | None -> ignore (K.spawn server ~prog:"netd" ~arg:"")
  | Some (kill_at, down_ticks) ->
      K.register_program server "supervisor" (fun s _ ->
          match U.spawn s ~prog:"netd" ~arg:"" with
          | Error _ -> U.log s "supervisor: first spawn failed"
          | Ok pid1 ->
              U.sleep s kill_at;
              ignore (U.kill s ~pid:pid1 ~signal:9);
              ignore (U.wait s pid1);
              U.sleep s down_ticks;
              (match U.spawn s ~prog:"netd" ~arg:"" with
              | Error _ -> U.log s "supervisor: respawn failed"
              | Ok pid2 -> ignore (U.wait s pid2)));
      ignore (K.spawn server ~prog:"supervisor" ~arg:""));
  let after_epoch = match crash with None -> 0 | Some _ -> 1 in
  K.register_program client "client-main" (fun s _ ->
      finish := spawn_clients s ~threads ~body:client_body;
      U.log s "clients done";
      shutdown ~after_epoch s);
  ignore (K.spawn client ~prog:"client-main" ~arg:"");
  K.run_pair ~on_tick server client;
  (match Netd.latest_run netd with
  | Some run when run.Netd.finished -> ()
  | _ -> raise (Unfinished "netd's last run did not shut down"));
  { w_netd = netd; w_server = server; w_client = client; w_finish = !finish }

let applied_total netd =
  List.fold_left
    (fun acc r -> acc + Node_core.applied r.Netd.run_core)
    0 (Netd.runs netd)

let dup_hits_total netd =
  List.fold_left
    (fun acc r -> acc + Node_core.dup_hits r.Netd.run_core)
    0 (Netd.runs netd)

let durable_contents server =
  Node_core.mem_contents (Node_core.fs_store (K.fs server))

let same_kv a b = List.sort compare a = List.sort compare b

(* ================================================================== *)
(* Client workloads                                                    *)

(* The linearizability workload: a 2-key space so operations genuinely
   contend, the op mix and jitter keyed off (proc, i) so every thread's
   schedule is deterministic but different. *)
let lin_body rc ~seed ~attempt_ticks ~deletes ~ops ts proc =
  let net, cl =
    Nd_client.create
      ~config:(patient_config ~seed:(seed + proc))
      ~attempt_ticks ~client:proc ts ~ip:server_ip
  in
  for i = 1 to ops do
    U.sleep ts (1 + ((proc + i) mod 3));
    let key = if (proc + i) mod 2 = 0 then "alpha" else "beta" in
    let value = Printf.sprintf "p%d-%d" proc i in
    let op = KV.mixed_op ~deletes ~proc ~i ~key ~value () in
    record rc ts proc op (fun () ->
        KV.perform ~put:(RC.put cl) ~get:(RC.get cl) ~delete:(RC.delete cl)
          ~pp_error:RC.pp_error op)
  done;
  Nd_client.close net

let lin_world ?config ?faults ?crash ?trace ?(procs = 3) ?(ops = 6)
    ?(attempt_ticks = 300) ?(deletes = true) ~seed () =
  let rc = KV.recorder () in
  let out =
    run_world ?config ?faults ?crash ?trace ~threads:procs
      ~client_body:(lin_body rc ~seed ~attempt_ticks ~deletes ~ops)
      ()
  in
  (rc, out)

(* The exactly-once workload: distinct keys per logical mutation, so
   "each acknowledged op applied exactly once" is directly observable as
   durable-store = acknowledged-set. *)
let eo_world ?config ?faults ?crash ?(procs = 3) ?(ops = 6)
    ?(attempt_ticks = 80) ~seed () =
  let acks = ref [] in
  let fails = ref 0 in
  let body ts proc =
    let net, cl =
      Nd_client.create
        ~config:(patient_config ~seed:(seed + proc))
        ~attempt_ticks ~client:proc ts ~ip:server_ip
    in
    for i = 1 to ops do
      U.sleep ts (1 + ((proc + i) mod 2));
      let key = Printf.sprintf "k%d-%d" proc i in
      let v = Printf.sprintf "v%d-%d" proc i in
      match RC.put cl ~key ~value:v with
      | Ok () -> acks := (key, v) :: !acks
      | Error _ -> incr fails
    done;
    Nd_client.close net
  in
  let out = run_world ?config ?faults ?crash ~threads:procs ~client_body:body () in
  (!acks, !fails, out)

(* ================================================================== *)
(* Fault families                                                      *)

let rates_drop = { FP.no_faults with FP.drop = 160 }

let rates_mixed =
  { FP.drop = 60; duplicate = 50; reorder = 50; corrupt = 40; stall = 40;
    max_stall = 3 }

let rates_stall = { FP.no_faults with FP.stall = 140; max_stall = 4 }

(* ================================================================== *)
(* VC sections                                                         *)

let cat_queue = "nd/queue"
let cat_parity = "nd/parity"
let cat_model = "nd/model"
let cat_mutation = "nd/mutation"
let cat_abi = "nd/abi"
let cat_trace = "nd/trace"
let cat_eo = "nd/exactly-once"
let cat_lin = "nd/lin"
let cat_crash = "nd/crash"
let cat_perf = "nd/perf"

(* ------------------------------------------------------------------ *)
(* Queue, live on the kernel                                           *)

(* Run [body] as the main thread of one process on a fresh kernel. *)
let run_prog body =
  let k = K.create () in
  K.register_program k "t" (fun s _ -> body s);
  ignore (K.spawn k ~prog:"t" ~arg:"");
  K.run k

let vc_queue_fifo =
  Vc.prop ~id:"nd/queue/fifo-order" ~category:cat_queue (fun () ->
      let got = ref [] in
      let ok = ref true in
      run_prog (fun s ->
          let q = Req_queue.create s ~capacity:4 in
          let tid =
            U.thread_create s (fun ps ->
                for i = 1 to 8 do
                  if not (Req_queue.push ps q i) then ok := false
                done)
          in
          for _ = 1 to 8 do
            U.sleep s 1;
            match Req_queue.pop s q with
            | Some v -> got := v :: !got
            | None -> ok := false
          done;
          ignore (U.thread_join s tid));
      !ok
      && List.rev !got = [ 1; 2; 3; 4; 5; 6; 7; 8 ])

let vc_queue_wakeup_pop_first =
  (* The consumer parks on an empty queue before the producer exists:
     the push's signal must reach it (no lost wakeup, live). *)
  Vc.prop ~id:"nd/queue/no-lost-wakeup-live" ~category:cat_queue (fun () ->
      let got = ref None in
      run_prog (fun s ->
          let q = Req_queue.create s ~capacity:2 in
          let tid = U.thread_create s (fun cs -> got := Req_queue.pop cs q) in
          U.sleep s 5;
          ignore (Req_queue.push s q 42);
          ignore (U.thread_join s tid));
      !got = Some 42)

let vc_queue_push_blocks_at_capacity =
  Vc.prop ~id:"nd/queue/push-blocks-at-capacity" ~category:cat_queue (fun () ->
      let got = ref [] in
      let hw = ref 0 in
      run_prog (fun s ->
          let q = Req_queue.create s ~capacity:2 in
          let tid =
            U.thread_create s (fun ps ->
                for i = 1 to 5 do
                  ignore (Req_queue.push ps q i)
                done)
          in
          for _ = 1 to 5 do
            U.sleep s 3;
            match Req_queue.pop s q with
            | Some v -> got := v :: !got
            | None -> ()
          done;
          ignore (U.thread_join s tid);
          hw := Req_queue.high_water q);
      List.rev !got = [ 1; 2; 3; 4; 5 ] && !hw <= 2)

let vc_queue_close_drains =
  Vc.prop ~id:"nd/queue/close-drains-then-none" ~category:cat_queue (fun () ->
      let tail = ref [] in
      run_prog (fun s ->
          let q = Req_queue.create s ~capacity:8 in
          ignore (Req_queue.push s q 1);
          ignore (Req_queue.push s q 2);
          ignore (Req_queue.push s q 3);
          Req_queue.close s q;
          for _ = 1 to 4 do
            tail := Req_queue.pop s q :: !tail
          done;
          (* Push after close is refused. *)
          if Req_queue.push s q 9 then tail := Some 9 :: !tail);
      List.rev !tail = [ Some 1; Some 2; Some 3; None ])

let vc_queue_close_releases_parked =
  (* Three consumers parked on an empty queue; close must wake them all
     (the broadcast the mutation VC below breaks). *)
  Vc.prop ~id:"nd/queue/close-releases-parked" ~category:cat_queue (fun () ->
      let finished = ref 0 in
      run_prog (fun s ->
          let q = Req_queue.create s ~capacity:2 in
          let tids =
            List.init 3 (fun _ ->
                U.thread_create s (fun cs ->
                    if Req_queue.pop cs q = None then incr finished))
          in
          U.sleep s 10;
          Req_queue.close s q;
          List.iter (fun tid -> ignore (U.thread_join s tid)) tids);
      !finished = 3)

let vc_queue_mpmc_conservation =
  Vc.prop ~id:"nd/queue/mpmc-conservation" ~category:cat_queue (fun () ->
      let popped = ref [] in
      let counters = ref (0, 0) in
      run_prog (fun s ->
          let q = Req_queue.create s ~capacity:4 in
          let producers =
            List.init 3 (fun p ->
                U.thread_create s (fun ps ->
                    for i = 1 to 10 do
                      U.sleep ps ((p + i) mod 2);
                      ignore (Req_queue.push ps q ((100 * p) + i))
                    done))
          in
          let consumers =
            List.init 2 (fun c ->
                U.thread_create s (fun cs ->
                    let continue = ref true in
                    while !continue do
                      U.sleep cs ((c + 1) mod 2);
                      match Req_queue.pop cs q with
                      | Some v -> popped := v :: !popped
                      | None -> continue := false
                    done))
          in
          List.iter (fun tid -> ignore (U.thread_join s tid)) producers;
          Req_queue.close s q;
          List.iter (fun tid -> ignore (U.thread_join s tid)) consumers;
          counters := (Req_queue.pushed q, Req_queue.popped q));
      let expect =
        List.concat_map
          (fun p -> List.init 10 (fun i -> (100 * p) + i + 1))
          [ 0; 1; 2 ]
      in
      List.sort compare !popped = List.sort compare expect
      && !counters = (30, 30))

let vc_queue_capacity_one_pingpong =
  Vc.prop ~id:"nd/queue/capacity-one-pingpong" ~category:cat_queue (fun () ->
      let got = ref [] in
      let hw = ref 0 in
      run_prog (fun s ->
          let q = Req_queue.create s ~capacity:1 in
          let tid =
            U.thread_create s (fun ps ->
                for i = 1 to 6 do
                  ignore (Req_queue.push ps q i)
                done)
          in
          for _ = 1 to 6 do
            match Req_queue.pop s q with
            | Some v -> got := v :: !got
            | None -> ()
          done;
          ignore (U.thread_join s tid);
          hw := Req_queue.high_water q);
      List.rev !got = [ 1; 2; 3; 4; 5; 6 ] && !hw = 1)

(* ------------------------------------------------------------------ *)
(* Checked ≡ Erased parity                                             *)

let queue_parity_run mode =
  Contract.with_mode mode (fun () ->
      let popped = ref [] in
      let counters = ref (0, 0) in
      run_prog (fun s ->
          let q = Req_queue.create s ~capacity:3 in
          let producers =
            List.init 2 (fun p ->
                U.thread_create s (fun ps ->
                    for i = 1 to 8 do
                      U.sleep ps ((p + i) mod 3);
                      ignore (Req_queue.push ps q ((10 * p) + i))
                    done))
          in
          let tid =
            U.thread_create s (fun cs ->
                let continue = ref true in
                while !continue do
                  match Req_queue.pop cs q with
                  | Some v -> popped := v :: !popped
                  | None -> continue := false
                done)
          in
          List.iter (fun t -> ignore (U.thread_join s t)) producers;
          Req_queue.close s q;
          ignore (U.thread_join s tid);
          counters := (Req_queue.pushed q, Req_queue.popped q));
      (List.rev !popped, !counters))

let vc_parity_queue =
  Vc.equal_by ~id:"nd/parity/queue-run" ~category:cat_parity
    ~pp:(fun ppf (l, (pu, po)) ->
      Format.fprintf ppf "pushed %d popped %d order [%s]" pu po
        (String.concat ";" (List.map string_of_int l)))
    ~eq:( = )
    (fun () ->
      (queue_parity_run Contract.Checked, queue_parity_run Contract.Erased))

let e2e_parity_run mode =
  Contract.with_mode mode (fun () ->
      let acks, fails, out = eo_world ~procs:2 ~ops:5 ~seed:71 () in
      (List.sort compare acks, fails, List.sort compare (durable_contents out.w_server)))

let vc_parity_e2e =
  Vc.equal_by ~id:"nd/parity/e2e-quiet" ~category:cat_parity
    ~pp:(fun ppf (acks, fails, durable) ->
      Format.fprintf ppf "%d acks, %d fails, %d durable" (List.length acks)
        fails (List.length durable))
    ~eq:( = )
    (fun () -> (e2e_parity_run Contract.Checked, e2e_parity_run Contract.Erased))

(* ------------------------------------------------------------------ *)
(* The queue's own code under the model checker                        *)
(*                                                                     *)
(* [Req_queue] over [Word.Explore], at capacity 1: its mutex and        *)
(* condvar words are model cells and their futex syscalls are          *)
(* [park]/[unpark].  A schedule on which a thread stays parked with     *)
(* nobody left to wake it is a [Deadlock] failure, so termination over  *)
(* the full schedule space IS no-lost-wakeup.                          *)

module Q = Req_queue.Make (Bi_ulib.Word.Explore)

let bounded = { E.default_config with E.preemption_bound = Some 2 }

(* The queue, and the items its consumers received, newest first. *)
let queue_make ctx = (Q.create ctx ~capacity:1, ref [])

let push ctx (q, _) v =
  E.check ctx (Q.push ctx q v) "push to an open queue failed"

let pop_into ctx (q, out) =
  match Q.pop ctx q with
  | Some v -> out := v :: !out
  | None -> E.check ctx false "pop returned None"

let pop_none ctx (q, _) =
  E.check ctx (Q.pop ctx q = None) "popped from empty closed queue"

let vc_model_no_lost_wakeup =
  E.vc ~id:"nd/model/queue-no-lost-wakeup" ~category:cat_model ~config:bounded
    ~make:queue_make
    ~threads:
      [
        (fun st ctx ->
          push ctx st 1;
          push ctx st 2);
        (fun st ctx ->
          pop_into ctx st;
          pop_into ctx st);
      ]
    ~final:(fun (_, out) ->
      if List.rev !out = [ 1; 2 ] then None
      else Some "consumer did not receive 1;2 in order")
    ()

let vc_model_capacity_blocking =
  E.vc ~id:"nd/model/queue-capacity-no-loss" ~category:cat_model
    ~config:bounded ~make:queue_make
    ~threads:
      [
        (fun st ctx -> push ctx st 1);
        (fun st ctx -> push ctx st 2);
        (fun st ctx ->
          pop_into ctx st;
          pop_into ctx st);
      ]
    ~final:(fun (_, out) ->
      if List.sort compare !out = [ 1; 2 ] then None
      else Some "both pushed items must be consumed exactly once")
    ()

let vc_model_close_releases =
  E.vc ~id:"nd/model/close-releases-all" ~category:cat_model ~config:bounded
    ~make:queue_make
    ~threads:
      [
        (fun st ctx -> pop_none ctx st);
        (fun st ctx -> pop_none ctx st);
        (fun (q, _) ctx -> Q.close ctx q);
      ]
    ()

let deadlock_expected f =
  match f.E.kind with E.Deadlock _ -> true | _ -> false

(* A futex whose wait sleeps without checking the word. *)
module Unchecked_word = struct
  include Bi_ulib.Word.Explore

  let futex_wait ctx v ~expected:_ = E.park_any ctx v
end

let vc_model_mutation_unchecked_wait =
  (* Seeded bug #1: the queue over a futex wait that ignores the
     expected value.  The explorer must find the schedule where the
     producer's signal lands in the consumer's unlock→sleep window and
     the consumer sleeps forever. *)
  let module Q = Req_queue.Make (Unchecked_word) in
  E.vc_catches ~id:"nd/mutation/queue-wait-unchecked" ~category:cat_mutation
    ~expect:deadlock_expected
    ~make:(fun ctx -> Q.create ctx ~capacity:1)
    ~threads:
      [
        (fun q ctx -> ignore (Q.push ctx q 7 : bool));
        (fun q ctx -> ignore (Q.pop ctx q : int option));
      ]
    ()

(* A futex whose wake wakes at most one sleeper.  [close]'s two
   broadcasts are the queue's only wakes with a count above one, so the
   queue over this word is exactly a queue whose [close] signals where
   it must broadcast. *)
module Wake_one (W : Bi_ulib.Word.S) = struct
  include W

  let futex_wake ctx t ~count = W.futex_wake ctx t ~count:(min count 1)
end

let vc_model_mutation_close_signal =
  (* Seeded bug #2 (model half): close wakes one waiter where broadcast
     is needed; with two parked consumers one never comes home. *)
  let module Q = Req_queue.Make (Wake_one (Bi_ulib.Word.Explore)) in
  E.vc_catches ~id:"nd/mutation/close-signal-not-broadcast"
    ~category:cat_mutation ~expect:deadlock_expected ~config:bounded
    ~make:(fun ctx -> Q.create ctx ~capacity:1)
    ~threads:
      [
        (fun q ctx -> ignore (Q.pop ctx q : int option));
        (fun q ctx -> ignore (Q.pop ctx q : int option));
        (fun q ctx -> Q.close ctx q);
      ]
    ()

(* ------------------------------------------------------------------ *)
(* Mutation self-checks, live on the kernel                            *)

let vc_mutation_close_signal_live =
  (* Seeded bug #2 (live half): the same wake(1) close on the real
     kernel with three parked workers — the run must end in the kernel's
     [Deadlock], proving the harness catches the stranded worker. *)
  Vc.make ~id:"nd/mutation/close-signal-live" ~category:cat_mutation (fun () ->
      let woken = ref 0 in
      let k = K.create () in
      let module Q = Req_queue.Make (Wake_one (Bi_ulib.Word.Usys)) in
      K.register_program k "t" (fun s _ ->
          let q = Q.create s ~capacity:2 in
          let tids =
            List.init 3 (fun _ ->
                U.thread_create s (fun cs -> if Q.pop cs q = None then incr woken))
          in
          U.sleep s 10;
          Q.close s q;
          List.iter (fun tid -> ignore (U.thread_join s tid)) tids);
      ignore (K.spawn k ~prog:"t" ~arg:"");
      match K.run k with
      | () -> Vc.Falsified "mutant close(signal) was not caught"
      | exception K.Deadlock _ ->
          if !woken < 3 then Vc.Proved
          else Vc.Falsified "deadlock but every consumer was woken")

(* A duplicating wire: every mutation attempt is sent twice and the
   second response returned — the retry storm in miniature.  [strip]
   drops each request's txn id before sending: the seeded bug of a netd
   that bypasses its duplicate table. *)
let dup_wire ?(strip = false) net =
  {
    RC.name = "dup-wire";
    rpc =
      (fun req ->
        let req = if strip then P.strip_txn req else req in
        match req with
        | P.Put _ | P.Delete _ -> (
            match Nd_client.rpc net req with
            | Error _ as e -> e
            | Ok _first -> Nd_client.rpc net req)
        | _ -> Nd_client.rpc net req);
  }

let vc_mutation_dedup_bypass =
  (* Seeded bug #3: netd sees no txn ids, bypassing the duplicate
     table.  The detector drives every mutation through [dup_wire] and
     must see the bypass: the duplicate Delete
     gets re-evaluated as Missing instead of being answered Done from
     the table, and the apply counter double-counts. *)
  Vc.prop ~id:"nd/mutation/dedup-bypass-caught" ~category:cat_mutation
    (fun () ->
      let detect ~mutant =
        let del_result = ref None in
        let applied = ref 0 in
        let dup_hits = ref 0 in
        let body ts _ =
          let net = Nd_client.make ts ~ip:server_ip () in
          let cl =
            RC.create ~config:(patient_config ~seed:5) ~client:0
              (Nd_client.clock ts) (dup_wire ~strip:mutant net)
          in
          (match RC.put cl ~key:"victim" ~value:"once" with
          | Ok () -> ()
          | Error _ -> ());
          (match RC.delete cl ~key:"victim" with
          | Ok b -> del_result := Some b
          | Error _ -> ());
          Nd_client.close net
        in
        let out = run_world ~threads:1 ~client_body:body () in
        applied := applied_total out.w_netd;
        dup_hits := dup_hits_total out.w_netd;
        (!del_result, !applied, !dup_hits)
      in
      let correct = detect ~mutant:false in
      let mutant = detect ~mutant:true in
      (* Correct netd: both duplicates answered from the table — one
         apply per mutation, delete observed true. *)
      let correct_ok =
        match correct with Some true, 2, hits -> hits >= 2 | _ -> false
      in
      (* Mutant: the second Delete re-evaluates as Missing (false), and
         the apply count double-counts the duplicates. *)
      let mutant_caught =
        match mutant with
        | Some false, _, _ -> true
        | _, applied, _ -> applied > 2
      in
      correct_ok && mutant_caught)

(* ------------------------------------------------------------------ *)
(* Sysabi marshalling hardening (satellite: fuzz + strict prefixes)    *)

let vc_abi_fuzz_request_total =
  Vc.prop ~id:"nd/abi/fuzz-request-total" ~category:cat_abi
    (Vc.forall_sampled ~id:"nd/abi/fuzz-request-total" ~n:600
       (fun g ->
         let req = Sysabi.sample_request g in
         FP.corrupt_bytes g (Sysabi.encode_request req))
       (fun corrupted ->
         match Sysabi.decode_request corrupted with
         | Some _ | None -> true
         | exception _ -> false))

let vc_abi_fuzz_response_total =
  Vc.prop ~id:"nd/abi/fuzz-response-total" ~category:cat_abi
    (Vc.forall_sampled ~id:"nd/abi/fuzz-response-total" ~n:600
       (fun g ->
         let resp = Sysabi.sample_response g in
         FP.corrupt_bytes g (Sysabi.encode_response resp))
       (fun corrupted ->
         match Sysabi.decode_response corrupted with
         | Some _ | None -> true
         | exception _ -> false))

let strict_prefixes_rejected encode decode x =
  let enc = encode x in
  let n = Bytes.length enc in
  let ok = ref true in
  for len = 0 to n - 1 do
    match decode (Bytes.sub enc 0 len) with
    | None -> ()
    | Some _ -> ok := false
    | exception _ -> ok := false
  done;
  !ok

let vc_abi_strict_prefix_request =
  Vc.prop ~id:"nd/abi/strict-prefix-request" ~category:cat_abi
    (Vc.forall_sampled ~id:"nd/abi/strict-prefix-request" ~n:80
       Sysabi.sample_request
       (strict_prefixes_rejected Sysabi.encode_request Sysabi.decode_request))

let vc_abi_strict_prefix_response =
  Vc.prop ~id:"nd/abi/strict-prefix-response" ~category:cat_abi
    (Vc.forall_sampled ~id:"nd/abi/strict-prefix-response" ~n:80
       Sysabi.sample_response
       (strict_prefixes_rejected Sysabi.encode_response Sysabi.decode_response))

(* ------------------------------------------------------------------ *)
(* Syscall-trace replay through Sys_spec                               *)
(*                                                                     *)
(* Each world boots with one external spawn (pid 1), so the spec's pid  *)
(* allocator starts at 2.  The server's filesystem traffic lands in the *)
(* value-predicted (Checked) subset; thread/futex/TCP events are shape- *)
(* validated — the split Sys_spec defines.                              *)

let replay k =
  Sys_spec.check_trace ~next_pid:2 (K.trace k)

(* The traced worlds the replay VCs run: quiet, a seeded faulty link,
   and SIGKILL + respawn. *)
let quiet_world ~seed = lin_world ~trace:true ~seed ()

let faulty_world () =
  lin_world ~trace:true ~faults:(rates_mixed, 30, 501) ~attempt_ticks:90
    ~seed:13 ()

let crash_world () =
  lin_world ~trace:true ~crash:(80, 40) ~attempt_ticks:100 ~deletes:false
    ~seed:14 ()

let trace_worlds () =
  List.map
    (fun (name, world) ->
      let _, out = world () in
      (name, out.w_server, out.w_client, out.w_finish))
    [
      ("quiet", fun () -> quiet_world ~seed:11);
      ("faulty-link", faulty_world);
      ("crash-respawn", crash_world);
    ]

let vc_trace_server_quiet =
  Vc.make ~id:"nd/trace/server-replay-quiet" ~category:cat_trace (fun () ->
      let _, out = quiet_world ~seed:11 in
      match replay out.w_server with
      | Error msg -> Vc.Falsified ("server trace: " ^ msg)
      | Ok (checked, unchecked) ->
          if checked > 0 && unchecked > 0 then Vc.Proved
          else
            Vc.Falsified
              (Printf.sprintf "degenerate trace: %d checked, %d unchecked"
                 checked unchecked))

let vc_trace_client_quiet =
  Vc.make ~id:"nd/trace/client-replay-quiet" ~category:cat_trace (fun () ->
      let _, out = quiet_world ~seed:12 in
      match replay out.w_client with
      | Error msg -> Vc.Falsified ("client trace: " ^ msg)
      | Ok (checked, _) ->
          if checked > 0 then Vc.Proved
          else Vc.Falsified "client trace had no checked events")

let vc_trace_replay_faulty =
  Vc.make ~id:"nd/trace/replay-faulty-link" ~category:cat_trace (fun () ->
      let _, out = faulty_world () in
      match (replay out.w_server, replay out.w_client) with
      | Ok _, Ok _ -> Vc.Proved
      | Error msg, _ -> Vc.Falsified ("server trace: " ^ msg)
      | _, Error msg -> Vc.Falsified ("client trace: " ^ msg))

let vc_trace_replay_crash =
  Vc.make ~id:"nd/trace/replay-crash-respawn" ~category:cat_trace (fun () ->
      let _, out = crash_world () in
      match replay out.w_server with
      | Error msg -> Vc.Falsified ("server trace across kill/respawn: " ^ msg)
      | Ok (checked, _) ->
          if checked > 0 then Vc.Proved
          else Vc.Falsified "crash trace had no checked events")

let vc_trace_marshal_roundtrip =
  (* Every event the kernel logged crossed the wire format twice; the
     recorded values must round-trip bit-exactly. *)
  Vc.prop ~id:"nd/trace/marshal-roundtrip" ~category:cat_trace (fun () ->
      let _, out = lin_world ~trace:true ~seed:15 () in
      let events = K.trace out.w_server @ K.trace out.w_client in
      events <> []
      && List.for_all
           (fun (_, req, resp) ->
             (match Sysabi.decode_request (Sysabi.encode_request req) with
             | Some req' -> Sysabi.equal_request req req'
             | None -> false)
             &&
             match Sysabi.decode_response (Sysabi.encode_response resp) with
             | Some resp' -> Sysabi.equal_response resp resp'
             | None -> false)
           events)

(* ------------------------------------------------------------------ *)
(* End-to-end exactly-once                                             *)

let eo_ok ?(min_dup_hits = 0) (acks, fails, out) ~total =
  let durable = durable_contents out.w_server in
  fails = 0
  && List.length acks = total
  && applied_total out.w_netd = total
  && dup_hits_total out.w_netd >= min_dup_hits
  && same_kv durable acks

let vc_eo_quiet =
  Vc.prop ~id:"nd/exactly-once/quiet" ~category:cat_eo (fun () ->
      eo_ok (eo_world ~seed:21 ()) ~total:18)

let vc_eo_drop =
  (* Dropped frames force client retries under the same txn; the dup
     table must absorb every re-delivery: applied = acknowledged. *)
  Vc.prop ~id:"nd/exactly-once/faulty-drop" ~category:cat_eo (fun () ->
      eo_ok (eo_world ~faults:(rates_drop, 25, 601) ~seed:22 ()) ~total:18)

let vc_eo_mixed =
  Vc.prop ~id:"nd/exactly-once/faulty-mixed" ~category:cat_eo (fun () ->
      eo_ok (eo_world ~faults:(rates_mixed, 30, 602) ~seed:23 ()) ~total:18)

let vc_eo_dup_wrapper =
  (* Every mutation deliberately sent twice (same txn): the duplicate is
     answered from the table, applied exactly once, and the dup-table
     hit counter proves the path was taken. *)
  Vc.prop ~id:"nd/exactly-once/duplicated-attempts" ~category:cat_eo (fun () ->
      let acks = ref 0 in
      let fails = ref 0 in
      let body ts _ =
        let net = Nd_client.make ts ~ip:server_ip () in
        let cl =
          RC.create ~config:(patient_config ~seed:31) ~client:0
            (Nd_client.clock ts) (dup_wire net)
        in
        for i = 1 to 6 do
          match RC.put cl ~key:(Printf.sprintf "dup-%d" i) ~value:"v" with
          | Ok () -> incr acks
          | Error _ -> incr fails
        done;
        Nd_client.close net
      in
      let out = run_world ~threads:1 ~client_body:body () in
      !fails = 0 && !acks = 6
      && applied_total out.w_netd = 6
      && dup_hits_total out.w_netd >= 6)

(* ------------------------------------------------------------------ *)
(* End-to-end linearizability                                          *)

let lin_ok ((rc : KV.recorder), _out) =
  rc.errors = [] && rc.calls <> [] && KV.linearizable rc

let vc_lin_quiet =
  Vc.prop ~id:"nd/lin/quiet" ~category:cat_lin (fun () ->
      lin_ok (lin_world ~seed:41 ()))

let vc_lin_quiet_heavy =
  Vc.prop ~id:"nd/lin/quiet-4procs" ~category:cat_lin (fun () ->
      lin_ok (lin_world ~procs:4 ~ops:5 ~seed:42 ()))

let vc_lin_single_worker =
  Vc.prop ~id:"nd/lin/single-worker" ~category:cat_lin (fun () ->
      lin_ok
        (lin_world
           ~config:{ Netd.default_config with Netd.workers = 1 }
           ~seed:43 ()))

let vc_lin_faulty ~id faults ~seed =
  Vc.prop ~id ~category:cat_lin (fun () ->
      lin_ok (lin_world ~faults ~attempt_ticks:90 ~seed ()))

let vc_lin_drop =
  vc_lin_faulty ~id:"nd/lin/faulty-drop" (rates_drop, 25, 701) ~seed:44

let vc_lin_mixed =
  vc_lin_faulty ~id:"nd/lin/faulty-mixed" (rates_mixed, 30, 702) ~seed:45

let vc_lin_stall =
  vc_lin_faulty ~id:"nd/lin/faulty-stall" (rates_stall, 25, 703) ~seed:46

(* ------------------------------------------------------------------ *)
(* Crash + respawn with the epoch fence                                *)

let vc_crash_epoch_fence =
  Vc.prop ~id:"nd/crash/epoch-fence" ~category:cat_crash (fun () ->
      let _, out =
        lin_world ~crash:(80, 40) ~attempt_ticks:100 ~deletes:false ~seed:51 ()
      in
      match Netd.runs out.w_netd with
      | [ first; second ] ->
          first.Netd.run_epoch = 0
          && second.Netd.run_epoch = 1
          && second.Netd.finished
          && not first.Netd.finished
      | runs ->
          ignore runs;
          false)

let vc_crash_lin_put_get =
  (* Put/Get only: a put retried across the crash re-applies the same
     value, so the history stays linearizable without any ambiguity. *)
  Vc.prop ~id:"nd/crash/lin-put-get" ~category:cat_crash (fun () ->
      lin_ok (lin_world ~crash:(80, 40) ~attempt_ticks:100 ~deletes:false ~seed:52 ()))

let vc_crash_lin_deletes_exact =
  (* PR 9 recorded a delete whose retries straddled the epoch fence as
     ambiguous — the dup table died with the old epoch.  The respawned
     daemon now recovers the table from its journal before listening, so
     the same world must linearize with every boolean exact. *)
  Vc.prop ~id:"nd/crash/lin-deletes-exact" ~category:cat_crash (fun () ->
      lin_ok
        (lin_world ~crash:(80, 40) ~attempt_ticks:100 ~deletes:true ~seed:53 ()))

let vc_crash_exactly_once =
  Vc.prop ~id:"nd/crash/exactly-once-durability" ~category:cat_crash (fun () ->
      let acks, fails, out = eo_world ~crash:(80, 40) ~attempt_ticks:90 ~seed:54 () in
      let durable = durable_contents out.w_server in
      (* Every acknowledged put is durable with its exact value, and
         nothing else is; summed across both incarnations the store
         applied each of the 18 mutations exactly once — a retry landing
         after the respawn is answered from the recovered dup table, not
         re-applied. *)
      fails = 0
      && List.length acks = 18
      && same_kv durable acks
      && applied_total out.w_netd = 18
      && List.length (Netd.runs out.w_netd) = 2)

let vc_crash_retry_straddles_respawn =
  (* The former RAmbig case, pinned deterministically: a put and a
     delete acknowledged by epoch 0, then — after SIGKILL and respawn —
     resent byte-identically (same txns) to epoch 1.  The recovered dup
     table must answer both [Done] again; in particular the delete must
     NOT be re-evaluated against the store (the key is gone — a fresh
     table would answer [Missing] and a re-applied world would
     double-count).  All proved over the two lives' interleaved syscall
     traces. *)
  Vc.prop ~id:"nd/crash/retry-straddles-respawn" ~category:cat_crash (fun () ->
      let got = ref [] in
      let body ts _ =
        let net = Nd_client.make ~attempt_ticks:100 ts ~ip:server_ip () in
        let rpc_retry req =
          let rec go tries =
            if tries = 0 then P.Err (P.Io "gave up")
            else
              match Nd_client.rpc net req with
              | Ok ((P.Done | P.Missing) as r) -> r
              | _ ->
                  U.sleep ts 10;
                  go (tries - 1)
          in
          go 100
        in
        let put1 =
          P.Put
            {
              key = "straddle";
              value = "v";
              crc = P.crc32 "v";
              txn = Some { P.client = 9; seq = 1 };
            }
        in
        let del2 = P.Delete { key = "straddle"; txn = Some { P.client = 9; seq = 2 } } in
        let a = rpc_retry put1 in
        let b = rpc_retry del2 in
        (* Outlive the kill window, then wait out the epoch fence. *)
        U.sleep ts 200;
        let rec wait_epoch tries =
          if tries > 0 then
            match Nd_client.rpc net P.Ping with
            | Ok (P.Pong { epoch; _ }) when epoch >= 1 -> ()
            | _ ->
                U.sleep ts 10;
                wait_epoch (tries - 1)
        in
        wait_epoch 200;
        let a' = rpc_retry put1 in
        let b' = rpc_retry del2 in
        let g = rpc_retry (P.Get "straddle") in
        got := [ a; b; a'; b'; g ];
        Nd_client.close net
      in
      let out = run_world ~crash:(80, 40) ~threads:1 ~client_body:body () in
      !got = [ P.Done; P.Done; P.Done; P.Done; P.Missing ]
      && (match Netd.runs out.w_netd with
         | [ _first; second ] ->
             second.Netd.run_recovery.Node_core.r_dup_entries >= 2
             && Node_core.dup_hits second.Netd.run_core >= 2
             && Node_core.applied second.Netd.run_core = 0
         | _ -> false)
      && not (List.mem_assoc "straddle" (durable_contents out.w_server)))

let vc_crash_read_your_survived_writes =
  Vc.prop ~id:"nd/crash/read-your-survived-writes" ~category:cat_crash
    (fun () ->
      let observed = ref [] in
      let epochs_seen = ref [] in
      let body ts _ =
        let net, cl =
          Nd_client.create ~config:(patient_config ~seed:55) ~attempt_ticks:100
            ~client:0 ts ~ip:server_ip
        in
        (match RC.ping cl with
        | Ok (_, e) -> epochs_seen := e :: !epochs_seen
        | Error _ -> ());
        for i = 1 to 4 do
          ignore (RC.put cl ~key:(Printf.sprintf "surv-%d" i) ~value:(string_of_int i))
        done;
        (* Outlive the crash window, then read everything back from the
           respawned incarnation. *)
        U.sleep ts 200;
        (match RC.ping cl with
        | Ok (_, e) -> epochs_seen := e :: !epochs_seen
        | Error _ -> ());
        for i = 1 to 4 do
          match RC.get cl ~key:(Printf.sprintf "surv-%d" i) with
          | Ok (Some v) -> observed := (i, v) :: !observed
          | _ -> ()
        done;
        Nd_client.close net
      in
      let out = run_world ~crash:(60, 40) ~threads:1 ~client_body:body () in
      let fenced =
        match List.rev !epochs_seen with
        | e0 :: rest -> e0 = 0 && List.exists (fun e -> e > e0) rest
        | [] -> false
      in
      ignore out;
      fenced
      && List.sort compare !observed
         = [ (1, "1"); (2, "2"); (3, "3"); (4, "4") ])

(* ------------------------------------------------------------------ *)
(* Worker scaling and no-starvation (virtual time)                     *)

let scaling_run ~workers () =
  let config = { Netd.default_config with Netd.workers; service_ticks = 6 } in
  let acked = ref 0 in
  let body ts proc =
    let net, cl =
      Nd_client.create ~config:(patient_config ~seed:(61 + proc)) ~client:proc
        ts ~ip:server_ip
    in
    for i = 1 to 4 do
      U.sleep ts 1;
      match RC.put cl ~key:(Printf.sprintf "s%d-%d" proc i) ~value:"x" with
      | Ok () -> incr acked
      | Error _ -> ()
    done;
    Nd_client.close net
  in
  let out = run_world ~config ~threads:6 ~client_body:body () in
  (out, !acked)

let vc_perf_scaling_1_vs_4 =
  Vc.make ~id:"nd/perf/scaling-1-vs-4" ~category:cat_perf (fun () ->
      let out1, acked1 = scaling_run ~workers:1 () in
      let out4, acked4 = scaling_run ~workers:4 () in
      if acked1 <> 24 || acked4 <> 24 then
        Vc.Falsified
          (Printf.sprintf "lost acks: %d with 1 worker, %d with 4" acked1 acked4)
      else if out1.w_finish * 10 >= out4.w_finish * 13 then Vc.Proved
      else
        Vc.Falsified
          (Printf.sprintf
             "no scaling: %d ticks with 1 worker vs %d with 4 (need 1.3x)"
             out1.w_finish out4.w_finish))

let vc_perf_scaling_monotone =
  Vc.make ~id:"nd/perf/scaling-monotone-to-8" ~category:cat_perf (fun () ->
      let out1, _ = scaling_run ~workers:1 () in
      let out8, _ = scaling_run ~workers:8 () in
      if out1.w_finish > out8.w_finish then Vc.Proved
      else
        Vc.Falsified
          (Printf.sprintf "8 workers (%d ticks) not faster than 1 (%d ticks)"
             out8.w_finish out1.w_finish))

let vc_perf_no_starvation =
  (* A flooder thread keeps the queue busy with back-to-back requests; a
     victim thread's small workload must still complete ack'd on the
     first attempt (FIFO queue, no shed), and every worker in the pool
     must have served something (the futex wait queue hands off fairly
     rather than letting one worker spin on the hot path). *)
  Vc.make ~id:"nd/perf/worker-no-starvation" ~category:cat_perf (fun () ->
      let config =
        { Netd.default_config with Netd.workers = 3; service_ticks = 2 }
      in
      let victim_acks = ref 0 in
      let victim_retries = ref (-1) in
      let body ts proc =
        let net, cl =
          Nd_client.create ~config:(patient_config ~seed:(65 + proc))
            ~client:proc ts ~ip:server_ip
        in
        if proc = 0 then begin
          (* flooder: 30 back-to-back ops *)
          for i = 1 to 30 do
            ignore (RC.put cl ~key:(Printf.sprintf "flood-%d" i) ~value:"f")
          done
        end
        else begin
          for i = 1 to 5 do
            U.sleep ts 3;
            match RC.put cl ~key:(Printf.sprintf "victim-%d" i) ~value:"v" with
            | Ok () -> incr victim_acks
            | Error _ -> ()
          done;
          victim_retries := (RC.stats cl).RC.retries
        end;
        Nd_client.close net
      in
      let out = run_world ~config ~threads:2 ~client_body:body () in
      match Netd.latest_run out.w_netd with
      | None -> Vc.Falsified "no netd run recorded"
      | Some run ->
          if !victim_acks <> 5 then
            Vc.Falsified
              (Printf.sprintf "victim starved: %d/5 acks" !victim_acks)
          else if !victim_retries <> 0 then
            Vc.Falsified
              (Printf.sprintf "victim needed %d retries" !victim_retries)
          else if Array.exists (fun n -> n = 0) run.Netd.served then
            Vc.Falsified
              (Printf.sprintf "starved worker in pool: served = [%s]"
                 (String.concat ";"
                    (Array.to_list (Array.map string_of_int run.Netd.served))))
          else Vc.Proved)

(* ------------------------------------------------------------------ *)
(* The transport parks instead of polling                              *)

(* A closed loop of journaled 64-byte puts over 8 keys on one
   connection, beside an idle control connection (the shape of
   perfbench's put world), with both kernels traced from the end of a
   warm-up put to the end of the last put.  Returns the server and client
   events of that window and the number of puts acknowledged in it. *)
let no_poll_ops = 40

let no_poll_window () =
  let server = K.create ~ip:server_ip () in
  let client = K.create ~ip:client_ip () in
  ignore (Netd.install server);
  K.connect server client;
  ignore (K.spawn server ~prog:"netd" ~arg:"");
  let acked = ref 0 in
  let tracing on =
    K.set_trace server on;
    K.set_trace client on
  in
  K.register_program client "client-main" (fun s _ ->
      let control = Nd_client.make s ~ip:server_ip () in
      let rec ping tries =
        tries > 0
        && (Result.is_ok (Nd_client.rpc control P.Ping)
           || (U.sleep s 1; ping (tries - 1)))
      in
      if ping 100 then begin
        let net, cl = Nd_client.create ~client:1 s ~ip:server_ip in
        let put i =
          RC.put cl ~key:(Printf.sprintf "k%d" (i mod 8))
            ~value:(String.make 64 (Char.chr (97 + (i mod 26))))
        in
        ignore (put 0);
        tracing true;
        for i = 1 to no_poll_ops do
          if Result.is_ok (put i) then incr acked
        done;
        tracing false;
        Nd_client.close net
      end;
      Nd_client.close control;
      shutdown s);
  ignore (K.spawn client ~prog:"client-main" ~arg:"");
  K.run_pair server client;
  (K.trace server, K.trace client, !acked)

(* What [make verify] pins about the transport: on the data path netd and
   the client never sleep; netd's recvs and accepts never answer
   [E_again], because they wait for work with no deadline; a client recv
   that does is one whose deadline expired; and a put costs exactly 13
   server and 4 client syscalls.  The server's 13 are the recv, six
   futex calls for the queue hand-off and the store lock, the journal's
   write and fsync, the store save's open, write and close, and the
   send.  The client's 4 are the retry loop's one clock read, the send,
   the attempt's one clock read and the recv. *)
let vc_perf_no_poll =
  Vc.make ~id:"nd/perf/no-poll" ~category:cat_perf (fun () ->
      let srv, cli, acked = no_poll_window () in
      let sleeps =
        List.length
          (List.filter (function _, Sysabi.Sleep _, _ -> true | _ -> false) (srv @ cli))
      in
      let again = function
        | _, (Sysabi.Tcp_recv _ | Sysabi.Tcp_accept _), Sysabi.R_err Sysabi.E_again
          ->
            true
        | _ -> false
      in
      let timed = function
        | _, Sysabi.Tcp_recv { blocking = true; timeout; _ }, _ -> timeout > 0
        | _ -> false
      in
      let srv_again = List.filter again srv in
      let polled = List.filter (fun e -> again e && not (timed e)) cli in
      let per_op l = float_of_int (List.length l) /. float_of_int acked in
      if acked <> no_poll_ops then
        Vc.Falsified (Printf.sprintf "%d of %d puts acked" acked no_poll_ops)
      else if sleeps > 0 then
        Vc.Falsified (Printf.sprintf "%d sleep calls on the data path" sleeps)
      else if srv_again <> [] then
        Vc.Falsified
          (Printf.sprintf "%d server recv/accept calls answered E_again"
             (List.length srv_again))
      else if polled <> [] then
        Vc.Falsified
          (Printf.sprintf
             "%d client recv/accept calls answered E_again without a deadline"
             (List.length polled))
      else if List.length srv <> 13 * acked || List.length cli <> 4 * acked then
        Vc.Falsified
          (Printf.sprintf "syscalls per put: %.2f server, %.2f client (want 13, 4)"
             (per_op srv) (per_op cli))
      else Vc.Proved)

let transport_vcs () = [ vc_perf_no_poll ]

(* ================================================================== *)

let vcs () =
  [
    (* queue, live *)
    vc_queue_fifo;
    vc_queue_wakeup_pop_first;
    vc_queue_push_blocks_at_capacity;
    vc_queue_close_drains;
    vc_queue_close_releases_parked;
    vc_queue_mpmc_conservation;
    vc_queue_capacity_one_pingpong;
    (* parity *)
    vc_parity_queue;
    vc_parity_e2e;
    (* model *)
    vc_model_no_lost_wakeup;
    vc_model_capacity_blocking;
    vc_model_close_releases;
    vc_model_mutation_unchecked_wait;
    vc_model_mutation_close_signal;
    (* live mutations *)
    vc_mutation_close_signal_live;
    vc_mutation_dedup_bypass;
    (* abi hardening *)
    vc_abi_fuzz_request_total;
    vc_abi_fuzz_response_total;
    vc_abi_strict_prefix_request;
    vc_abi_strict_prefix_response;
    (* trace replay *)
    vc_trace_server_quiet;
    vc_trace_client_quiet;
    vc_trace_replay_faulty;
    vc_trace_replay_crash;
    vc_trace_marshal_roundtrip;
    (* exactly-once *)
    vc_eo_quiet;
    vc_eo_drop;
    vc_eo_mixed;
    vc_eo_dup_wrapper;
    (* linearizability *)
    vc_lin_quiet;
    vc_lin_quiet_heavy;
    vc_lin_single_worker;
    vc_lin_drop;
    vc_lin_mixed;
    vc_lin_stall;
    (* crash + epoch fence *)
    vc_crash_epoch_fence;
    vc_crash_lin_put_get;
    vc_crash_lin_deletes_exact;
    vc_crash_exactly_once;
    vc_crash_retry_straddles_respawn;
    vc_crash_read_your_survived_writes;
    (* perf *)
    vc_perf_scaling_1_vs_4;
    vc_perf_scaling_monotone;
    vc_perf_no_starvation;
  ]
