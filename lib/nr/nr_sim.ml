type config = {
  cores : int;
  numa_nodes : int;
  ops_per_core : int;
  apply_cycles : int;
  local_cycles : int;
  shootdown : bool;
  cost : Bi_hw.Cost_model.t;
  jitter : float;
  seed : string;
}

type result = {
  mean_latency_us : float;
  p50_us : float;
  p99_us : float;
  throughput_mops : float;
  mean_batch : float;
}

let default_config =
  {
    cores = 8;
    numa_nodes = 2;
    ops_per_core = 200;
    apply_cycles = 2000;
    local_cycles = 600;
    shootdown = false;
    cost = Bi_hw.Cost_model.default;
    jitter = 0.03;
    seed = "nr-sim";
  }

type node_state = {
  combiner : Bi_sim.Contention.Busy_resource.t;
  pending : (int * int) Bi_sim.Contention.Batcher.t; (* core, issue time *)
  mutable ltail : int;
}

type sim_state = {
  cfg : config;
  events : (unit -> unit) Bi_core.Vtime.Heap.t;
  mutable clock : int;
  nodes : node_state array;
  mutable log_tail : int;
  mutable remaining : int array; (* ops left per core *)
  latencies : float list ref;
  batches : int list ref;
  gen : Bi_core.Gen.t;
}

let jittered st x =
  let j = st.cfg.jitter in
  if j <= 0. then x
  else begin
    let r = Bi_core.Gen.int st.gen 2001 in
    let factor = 1. +. (j *. float_of_int (r - 1000) /. 1000.) in
    int_of_float (float_of_int x *. factor)
  end

let node_of st core = core * st.cfg.numa_nodes / st.cfg.cores

(* Run one combiner batch on [node] starting no earlier than [t0]. *)
let rec run_batch st node t0 =
  let ns = st.nodes.(node) in
  let batch = Bi_sim.Contention.Batcher.drain ns.pending in
  match batch with
  | [] -> ()
  | _ ->
      let n = List.length batch in
      st.batches := n :: !(st.batches);
      (* One contended reservation on the shared log tail. *)
      let append =
        Bi_hw.Cost_model.cas_acquire_cost st.cfg.cost
          ~contenders:st.cfg.numa_nodes
      in
      st.log_tail <- st.log_tail + n;
      (* Replay everything outstanding, including other nodes' entries. *)
      let to_apply = st.log_tail - ns.ltail in
      ns.ltail <- st.log_tail;
      let apply = to_apply * jittered st st.cfg.apply_cycles in
      let shoot =
        if st.cfg.shootdown then
          Bi_hw.Cost_model.shootdown_cost st.cfg.cost ~cores:st.cfg.cores
        else 0
      in
      let hold = append + apply + shoot in
      let finish =
        Bi_sim.Contention.Busy_resource.acquire ns.combiner ~now:t0
          ~hold_for:hold
      in
      let complete (core, issued) =
        let latency = finish - issued + st.cfg.local_cycles in
        st.latencies :=
          Bi_hw.Cost_model.cycles_to_us st.cfg.cost latency
          :: !(st.latencies);
        st.remaining.(core) <- st.remaining.(core) - 1;
        if st.remaining.(core) > 0 then
          Bi_core.Vtime.Heap.push st.events ~time:finish (fun () ->
              issue st core)
      in
      List.iter complete batch;
      (* If ops queued while we combined, the next batch starts at release. *)
      Bi_core.Vtime.Heap.push st.events ~time:finish (fun () ->
          if Bi_sim.Contention.Batcher.size ns.pending > 0 then
            run_batch st node finish)

and issue st core =
  let t = st.clock in
  let node = node_of st core in
  let ns = st.nodes.(node) in
  ignore (Bi_sim.Contention.Batcher.join ns.pending (core, t) : int);
  if not (Bi_sim.Contention.Busy_resource.is_busy ns.combiner ~now:t) then
    run_batch st node t

let run cfg =
  if cfg.cores <= 0 || cfg.numa_nodes <= 0 then
    invalid_arg "Nr_sim.run: cores and numa_nodes must be positive";
  let st =
    {
      cfg;
      events = Bi_core.Vtime.Heap.create ignore;
      clock = 0;
      nodes =
        Array.init cfg.numa_nodes (fun _ ->
            {
              combiner = Bi_sim.Contention.Busy_resource.create ();
              pending = Bi_sim.Contention.Batcher.create ();
              ltail = 0;
            });
      log_tail = 0;
      remaining = Array.make cfg.cores cfg.ops_per_core;
      latencies = ref [];
      batches = ref [];
      gen = Bi_core.Gen.of_string cfg.seed;
    }
  in
  (* Stagger initial issues slightly so cores do not all arrive at cycle 0. *)
  for core = 0 to cfg.cores - 1 do
    Bi_core.Vtime.Heap.push st.events ~time:(core * 50) (fun () ->
        issue st core)
  done;
  let rec loop () =
    match Bi_core.Vtime.Heap.pop st.events with
    | None -> ()
    | Some (time, f) ->
        st.clock <- time;
        f ();
        loop ()
  in
  loop ();
  let ls = !(st.latencies) in
  let total_ops = List.length ls in
  let end_time = float_of_int st.clock in
  let throughput =
    if end_time > 0. then
      float_of_int total_ops
      /. (Bi_hw.Cost_model.cycles_to_us cfg.cost (int_of_float end_time))
    else 0.
  in
  {
    mean_latency_us = Bi_core.Stats.mean ls;
    p50_us = Bi_core.Stats.percentile 0.5 ls;
    p99_us = Bi_core.Stats.percentile 0.99 ls;
    throughput_mops = throughput;
    mean_batch =
      Bi_core.Stats.mean (List.map float_of_int !(st.batches));
  }

let sweep cfg ~cores = List.map (fun c -> (c, run { cfg with cores = c })) cores
