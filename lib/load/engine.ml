(* Deterministic million-client workload engine.

   A discrete-event simulation in virtual time: the {!Bi_core.Vtime} event
   heap, keyed (time, insertion seq), drives open- or closed-loop clients
   against an array of {!Bi_app.Node_core.Queued} nodes (sharded when
   [nodes > 1], one shard per node).  Each node is a single server:
   dispatch takes the next request from the node's admission queue, the
   response is computed at dispatch (that is when the store mutates), and
   the completion lands a heavy-tailed service time later.  A shed
   submission bounces back to its client, which retries with exponential
   backoff up to [retry_max] attempts — the same policy
   {!Bi_app.Resilient_client} applies to [Overloaded], but inlined so
   ten^6 clients cost an array slot each, not a fiber each.  (The fiber-world interplay of shedding with the real
   retry loop and the dup table is proved separately in [Wl_check].)

   Determinism: every sample comes from the [Workload] sampler's own
   generator, and event order is a pure function of (time, seq) — so one
   (config, seed) pair gives one bit-identical summary, which the
   determinism VCs and test_load rely on.  Latencies go into a
   {!Bi_core.Stats.Reservoir}, so a million samples cost the reservoir's
   capacity in floats, not a million. *)

module P = Bi_app.Protocol
module NC = Bi_app.Node_core
module SM = Bi_app.Shard_map
module W = Workload
module Heap = Bi_core.Vtime.Heap

type mode = Open of { mean_gap : float } | Closed of { think : int }

type config = {
  clients : int;
  ops_per_client : int;
  mode : mode;
  capacity : int;  (* admission queue bound per node; [no_admission] disables *)
  per_client : int option;
  nodes : int;
  n_keys : int;
  theta : float;
  service_xm : float;
  service_alpha : float;
  service_cap : float;
  burst : W.Burst.t;
  retry_max : int;  (* resubmissions after a shed, before giving up *)
  retry_backoff : int;
  put_ratio_pct : int;  (* percent of ops that are Put; the rest are Get *)
  value_size : int;
  ramp : int;  (* closed-loop start times spread over [0, ramp) *)
  reservoir : int;
  seed : int64;
}

(* A capacity so large the queue never refuses: the "without admission
   control" arm of the knee experiment. *)
let no_admission = 1_000_000_000

let default =
  {
    clients = 1000;
    ops_per_client = 4;
    mode = Open { mean_gap = 50. };
    capacity = 64;
    per_client = None;
    nodes = 1;
    n_keys = 512;
    theta = 1.1;
    service_xm = 1.0;
    service_alpha = 1.5;
    service_cap = 200.;
    burst = W.Burst.always_on;
    retry_max = 6;
    retry_backoff = 2;
    put_ratio_pct = 70;
    value_size = 32;
    ramp = 256;
    reservoir = 4096;
    seed = 1L;
  }

type ev =
  | Arrive of { client : int; id : int; attempt : int }
  | Finish of { node : int }

type summary = {
  clients : int;
  issued : int;  (* logical operations started *)
  attempts : int;  (* submissions, retries included *)
  completed : int;
  shed : int;  (* submissions refused with [Err Overloaded] *)
  gave_up : int;  (* logical ops abandoned after [retry_max] sheds *)
  errors : int;  (* non-Overloaded error responses (expected 0) *)
  duration : int;  (* virtual ticks until the last event *)
  throughput : float;  (* completed per tick *)
  p50 : float;
  p99 : float;
  p999 : float;
  mean_latency : float;
  max_latency : float;
  max_queue : int;  (* max over nodes of the queue high-water mark *)
  total_capacity : int;  (* sum of node queue capacities *)
  applied : int;  (* store mutations actually applied (sum over nodes) *)
  min_client_completed : int;  (* worst client's completions — starvation *)
  invariants_ok : bool;  (* admission invariants held at every checkpoint *)
}

let run (cfg : config) =
  if cfg.clients < 1 then invalid_arg "Engine.run: clients < 1";
  if cfg.ops_per_client < 1 then invalid_arg "Engine.run: ops_per_client < 1";
  let total_ops = cfg.clients * cfg.ops_per_client in
  let mean_gap = match cfg.mode with Open { mean_gap } -> mean_gap | Closed _ -> 0. in
  let sampler =
    W.create ~burst:cfg.burst ~n_keys:cfg.n_keys ~theta:cfg.theta
      ~service_xm:cfg.service_xm ~service_alpha:cfg.service_alpha
      ~service_cap:cfg.service_cap ~mean_gap ~seed:cfg.seed ()
  in
  let opgen = Bi_core.Gen.create (Int64.logxor cfg.seed 0x77AD0BA1L) in
  (* Nodes: one shard each when sharded, so routing is the same CRC hash
     the real cluster uses. *)
  let nodes =
    Array.init cfg.nodes (fun i ->
        let core = NC.create (NC.mem_store ()) in
        if cfg.nodes > 1 then
          NC.enable_sharding core ~nshards:cfg.nodes ~version:1 ~owned:[ i ];
        NC.Queued.create ?per_client:cfg.per_client ~capacity:cfg.capacity core)
  in
  let busy = Array.make cfg.nodes false in
  let inflight_id = Array.make cfg.nodes (-1) in
  let inflight_client = Array.make cfg.nodes (-1) in
  let inflight_resp = Array.make cfg.nodes P.Done in
  (* Per-logical-op state, one slot per id. *)
  let op_key = Array.make total_ops 0 in
  let op_service = Array.make total_ops 1 in
  let op_start = Array.make total_ops 0 in
  let op_is_put = Bytes.make total_ops '\000' in
  let client_completed = Array.make cfg.clients 0 in
  let client_next_op = Array.make cfg.clients 0 in
  let key_names = Array.init cfg.n_keys (fun i -> "k" ^ string_of_int i) in
  let value = String.make cfg.value_size 'v' in
  let value_crc = P.crc32 value in
  let route key =
    if cfg.nodes = 1 then 0 else SM.shard_of ~nshards:cfg.nodes key
  in
  let res = Bi_core.Stats.Reservoir.create ~capacity:cfg.reservoir
      ~seed:(Int64.logxor cfg.seed 0x5EEDCAFEL) ()
  in
  let heap = Heap.create (Finish { node = 0 }) in
  let issued = ref 0 and attempts = ref 0 and completed = ref 0 in
  let shed = ref 0 and gave_up = ref 0 and errors = ref 0 in
  let last_time = ref 0 in
  let inv_ok = ref true in
  let checks = ref 0 in
  let checkpoint () =
    incr checks;
    if !checks land 255 = 0 then
      inv_ok :=
        !inv_ok && Array.for_all (fun n -> NC.Queued.invariants_ok n) nodes
  in
  let req_of id =
    let key = key_names.(op_key.(id)) in
    if Bytes.get op_is_put id = '\001' then
      P.Put { key; value; crc = value_crc; txn = None }
    else P.Get key
  in
  (* Start a fresh logical op for [client] at [time]: sample its shape,
     allocate its id, and schedule the first submission. *)
  let start_op client time =
    let op = client_next_op.(client) in
    if op < cfg.ops_per_client then begin
      client_next_op.(client) <- op + 1;
      let e = W.next sampler in
      let id = !issued in
      incr issued;
      op_key.(id) <- e.W.key;
      op_service.(id) <- e.W.service;
      if Bi_core.Gen.int opgen 100 < cfg.put_ratio_pct then
        Bytes.set op_is_put id '\001';
      let t =
        match cfg.mode with
        | Open _ -> W.Burst.defer cfg.burst ~time:(time + e.W.gap)
        | Closed _ -> time
      in
      op_start.(id) <- t;
      Heap.push heap ~time:t (Arrive { client; id; attempt = 1 })
    end
  in
  let try_dispatch node now =
    if not busy.(node) then
      match NC.Queued.serve ~max_requests:1 nodes.(node) with
      | [] -> ()
      | (client, id, resp) :: _ ->
          busy.(node) <- true;
          inflight_id.(node) <- id;
          inflight_client.(node) <- client;
          inflight_resp.(node) <- resp;
          Heap.push heap ~time:(now + op_service.(id)) (Finish { node })
  in
  (* A logical op is over (completed or abandoned): closed-loop clients
     think, then start their next one. *)
  let op_over client now =
    match cfg.mode with
    | Closed { think } -> start_op client (now + think)
    | Open _ -> ()
  in
  let submit client id attempt now =
    incr attempts;
    let node = route key_names.(op_key.(id)) in
    match NC.Queued.submit nodes.(node) ~client ~id (req_of id) with
    | None -> try_dispatch node now
    | Some _overloaded ->
        incr shed;
        if attempt <= cfg.retry_max then begin
          let backoff =
            cfg.retry_backoff * (1 lsl min (attempt - 1) 8)
          in
          Heap.push heap ~time:(now + backoff)
            (Arrive { client; id; attempt = attempt + 1 })
        end
        else begin
          incr gave_up;
          op_over client now
        end
  in
  (* Seed the schedule: open-loop clients chain arrivals from their
     sampled gaps; closed-loop clients start staggered over [ramp). *)
  (match cfg.mode with
  | Open _ -> for c = 0 to cfg.clients - 1 do start_op c 0 done
  | Closed _ ->
      let ramp = max 1 cfg.ramp in
      for c = 0 to cfg.clients - 1 do
        start_op c (c mod ramp)
      done);
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some (now, ev) ->
        last_time := now;
        (match ev with
        | Arrive { client; id; attempt } ->
            (* Open loop: the next op's arrival only depends on this one's
               arrival, not its completion — schedule it now. *)
            (match cfg.mode with
            | Open _ when attempt = 1 -> start_op client now
            | _ -> ());
            submit client id attempt now
        | Finish { node } ->
            let id = inflight_id.(node) in
            let client = inflight_client.(node) in
            (match inflight_resp.(node) with
            | P.Err _ -> incr errors
            | _ -> ());
            busy.(node) <- false;
            incr completed;
            client_completed.(client) <- client_completed.(client) + 1;
            Bi_core.Stats.Reservoir.add res (float_of_int (now - op_start.(id)));
            op_over client now;
            try_dispatch node now);
        checkpoint ();
        loop ()
  in
  loop ();
  inv_ok := !inv_ok && Array.for_all (fun n -> NC.Queued.invariants_ok n) nodes;
  let max_queue =
    Array.fold_left (fun acc n -> max acc (NC.Queued.high_water n)) 0 nodes
  in
  let applied =
    Array.fold_left (fun acc n -> acc + NC.applied (NC.Queued.node n)) 0 nodes
  in
  let min_client_completed =
    Array.fold_left min max_int client_completed
  in
  let module R = Bi_core.Stats.Reservoir in
  let pct p = if !completed = 0 then 0. else R.percentile p res in
  {
    clients = cfg.clients;
    issued = !issued;
    attempts = !attempts;
    completed = !completed;
    shed = !shed;
    gave_up = !gave_up;
    errors = !errors;
    duration = !last_time;
    throughput =
      (if !last_time = 0 then 0.
       else float_of_int !completed /. float_of_int !last_time);
    p50 = pct 0.50;
    p99 = pct 0.99;
    p999 = pct 0.999;
    mean_latency = (if !completed = 0 then 0. else R.mean res);
    max_latency = (if !completed = 0 then 0. else R.max_seen res);
    max_queue;
    total_capacity = cfg.nodes * cfg.capacity;
    applied;
    min_client_completed;
    invariants_ok = !inv_ok;
  }
