(* The `wl` verification suite: adversarial *load*, where the other app
   suites are adversarial *faults*.

   The obligations, discharged executably on the one virtual-time fiber
   scheduler ({!Bi_core.Vtime}) and the shared {!Bi_app.Sim_world}
   transport the rs/sh suites use:

   - determinism: the workload samplers and the engine are pure functions
     of (config, seed) — traces and whole summaries compare bit-for-bit;
   - statistical soundness: the samplers actually have the shapes the
     engine assumes (Zipf top-k vs analytic, burst duty cycle, heavy-tail
     quantile ratio) — seeded, so the checks are exact, never flaky;
   - the reservoir sketch agrees exactly with [Stats.percentile] below
     capacity and within bounded error above it;
   - the admission queue's memory is bounded at all times, FIFO per
     client, round-robin across clients, and per-client capped;
   - shedding is typed ([Err Overloaded], retryable), never half-applies
     (shed ⇒ no state mutation), and composes with the dup table so
     shed + retry through [Resilient_client] stays exactly-once;
   - no client starves under sustained overload, including a flooding
     neighbour;
   - per-key linearizability holds under shedding composed with the
     fault adversaries (drop / duplicate / mixed × 3 seeds);
   - and the mutation self-checks: a queue that half-applies shed
     requests, and an unfair queue that starves a victim, are both
     caught by the VCs above. *)

module P = Bi_app.Protocol
module NC = Bi_app.Node_core
module RC = Bi_app.Resilient_client
module Adm = Bi_app.Admission
module FP = Bi_fault.Fault_plan
module FL = Bi_fault.Faulty_link
module Vc = Bi_core.Vc
module Vtime = Bi_core.Vtime
module SW = Bi_app.Sim_world
module KV = Bi_app.Store_spec
module G = Bi_core.Gen
module R = Bi_core.Stats.Reservoir
module W = Workload
module E = Engine

(* ================================================================== *)
(* The overloaded world: ONE node fronted by Node_core.Queued, with a   *)
(* bounded service rate, and a faulty channel pair PER CLIENT (so the   *)
(* admission layer attributes arrivals to clients honestly, and the     *)
(* fault adversary can target each client's link independently), on    *)
(* the shared Sim_world transport.                                      *)

(* The seeded half-apply bug, built around the queue rather than in it:
   a request the queue shed is written into the store anyway, bypassing
   [handle] and the dup table, while the client still hears [Overloaded]. *)
let apply_shed store = function
  | P.Put { key; value; crc; txn = _ } ->
      ignore (store.NC.save key { NC.value; crc })
  | P.Delete { key; txn = _ } -> ignore (store.NC.remove key)
  | P.Get _ | P.List | P.Ping | P.Shutdown -> ()

module QWorld = struct
  type conn = { req_ch : FL.channel; resp_ch : FL.channel }

  type t = {
    net : SW.net;
    store : NC.store;
    qnode : NC.Queued.t;
    conns : conn array; (* index = client id *)
    service_rate : int;
    mutable inv_ok : bool; (* admission invariants held at every tick *)
    mutable max_qlen : int;
    half_apply : bool; (* seeded bug: [apply_shed] every shed request *)
    unfair : bool;
        (* seeded bug: every arrival is submitted as client 0 with no
           per-client cap — one shared FIFO under a global cap *)
  }

  let create ?(service_rate = 1) ?per_client ?(unfair = false)
      ?(half_apply = false) ~capacity ~nclients ~tag ~seed ~rates ~limit sched
      =
    let store = NC.mem_store () in
    let core = NC.create store in
    let per_client = if unfair then None else per_client in
    let qnode = NC.Queued.create ?per_client ~capacity core in
    let conns =
      Array.init nclients (fun i ->
          {
            req_ch =
              FL.channel
                (FP.seeded
                   ~name:(Printf.sprintf "wl/%s/c%d/req" tag i)
                   ~seed:(seed + i) ~rates ~limit ());
            resp_ch =
              FL.channel
                (FP.seeded
                   ~name:(Printf.sprintf "wl/%s/c%d/resp" tag i)
                   ~seed:(seed + i + 1000) ~rates ~limit ());
          })
    in
    {
      net = SW.net sched;
      store;
      qnode;
      conns;
      service_rate;
      inv_ok = true;
      max_qlen = 0;
      half_apply;
      unfair;
    }

  let tick t =
    (* Arrivals land in the admission queue — or bounce straight back as
       [Err Overloaded], before touching any node state. *)
    Array.iteri
      (fun client conn ->
        List.iter
          (fun (id, req) ->
            let client = if t.unfair then 0 else client in
            match NC.Queued.submit t.qnode ~client ~id req with
            | None -> ()
            | Some resp ->
                if t.half_apply then apply_shed t.store req;
                SW.reply conn.resp_ch ~id resp)
          (SW.arrivals conn.req_ch))
      t.conns;
    (* At most [service_rate] queued requests are dispatched per round. *)
    List.iter
      (fun (client, id, resp) -> SW.reply t.conns.(client).resp_ch ~id resp)
      (NC.Queued.serve ~max_requests:t.service_rate t.qnode);
    t.max_qlen <- max t.max_qlen (NC.Queued.queue_length t.qnode);
    t.inv_ok <- t.inv_ok && NC.Queued.invariants_ok t.qnode;
    (* Deliver responses to their waiting clients. *)
    Array.iter (fun conn -> SW.deliver t.net conn.resp_ch) t.conns

  let attempt_timeout = 10

  let endpoint t client : RC.endpoint =
    {
      RC.name = Printf.sprintf "qnode/c%d" client;
      rpc = SW.call t.net t.conns.(client).req_ch ~attempt_timeout;
    }

  let clock t = SW.net_clock t.net
end

let record rc s = KV.record rc ~now:(fun () -> Vtime.now s)

(* A retry config patient enough to ride out both faults and sheds. *)
let patient_config seed =
  {
    RC.max_attempts = 12;
    backoff_base = 2;
    backoff_cap = 8;
    jitter_pm = 1;
    breaker_threshold = 10_000;
    breaker_cooldown = 50;
    deadline = 4_000;
    seed;
  }

let rates_pass = FP.no_faults
let rates_drop = { FP.no_faults with drop = 150 }
let rates_dup = { FP.no_faults with duplicate = 150 }

let rates_mixed =
  { FP.drop = 50; duplicate = 40; reorder = 40; corrupt = 30; stall = 30;
    max_stall = 3 }

(* ================================================================== *)
(* Overloaded-world scenarios                                          *)

type shed_run = {
  rc : KV.recorder;
  acked_muts : int; (* acked Puts + acked-true Dels *)
  applied : int;
  queue_shed : int;
  client_sheds : int; (* sum of RC per-client shed observations *)
  inv_ok : bool;
  max_qlen : int;
  capacity : int;
}

(* [nclients] retry-looping clients hammer one node whose queue is two
   deep and whose service rate is one per round — sustained overload, so
   shedding is on the hot path of every VC that uses this. *)
let shed_scenario ~tag ~seed ~rates ?(limit = 6) ?(nclients = 3) ?(ops = 5)
    ?(capacity = 2) ?(per_client = 1) ?(deletes = true) () =
  let s = Vtime.make () in
  let w =
    QWorld.create ~service_rate:1 ~per_client ~capacity ~nclients ~tag ~seed
      ~rates ~limit s
  in
  let rc = KV.recorder () in
  let keys = [| "a"; "b" |] in
  let clients =
    Array.init nclients (fun proc ->
        RC.create
          ~config:(patient_config (seed + proc))
          ~client:proc (QWorld.clock w)
          (QWorld.endpoint w proc))
  in
  let fiber proc () =
    let cl = clients.(proc) in
    for i = 1 to ops do
      let key = keys.((i + proc) mod Array.length keys) in
      let value = Printf.sprintf "v%d-%d" proc i in
      let op = KV.mixed_op ~deletes ~proc ~i ~key ~value () in
      record rc s proc op (fun () ->
          KV.perform ~put:(RC.put cl) ~get:(RC.get cl) ~delete:(RC.delete cl)
            ~pp_error:RC.pp_error op);
      Vtime.sleep (1 + ((proc + i) mod 3))
    done
  in
  List.iter (Vtime.spawn s) (List.init nclients fiber);
  ignore (Vtime.run ~tick:(fun () -> QWorld.tick w) s);
  let acked_muts =
    List.length
      (List.filter
         (fun call ->
           match (call.KV.Lin.op, call.KV.Lin.ret) with
           | KV.Put _, _ -> true
           | KV.Delete _, KV.Deleted b -> b
           | _ -> false)
         rc.calls)
  in
  let client_sheds = (RC.total_stats clients).RC.sheds in
  {
    rc;
    acked_muts;
    applied = NC.applied (NC.Queued.node w.QWorld.qnode);
    queue_shed = NC.Queued.shed w.QWorld.qnode;
    client_sheds;
    inv_ok = w.QWorld.inv_ok;
    max_qlen = w.QWorld.max_qlen;
    capacity;
  }

(* Flooder vs victim: client 0 fire-hoses raw frames (no retry loop, no
   waiting) while client 1 runs real retried mutations.  Under the fair
   queue the victim's per-client slots cannot be squeezed out; under the
   [unfair] mutant (one client, no per-client cap) the flooder owns the
   whole buffer and the victim starves — which is exactly what the
   mutation self-check asserts. *)
let flood_scenario ~tag ~seed ?(unfair = false) ?(victim_ops = 5) () =
  let s = Vtime.make () in
  let w =
    QWorld.create ~service_rate:1 ~per_client:2 ~unfair ~capacity:4
      ~nclients:2 ~tag ~seed ~rates:rates_pass ~limit:0 s
  in
  let flood_rounds = 400 in
  let flooder () =
    for _ = 1 to flood_rounds do
      for _ = 1 to 3 do
        ignore
          (SW.send w.QWorld.net w.QWorld.conns.(0).QWorld.req_ch
             (P.Put { key = "f"; value = "x"; crc = P.crc32 "x"; txn = None })
            : int)
      done;
      Vtime.sleep 1
    done
  in
  let victim_acked = ref 0 in
  let victim_errors = ref 0 in
  let victim () =
    let cl =
      RC.create
        ~config:(patient_config (seed + 1))
        ~client:1 (QWorld.clock w) (QWorld.endpoint w 1)
    in
    for i = 1 to victim_ops do
      (match RC.put cl ~key:"v" ~value:(Printf.sprintf "w%d" i) with
      | Ok () -> incr victim_acked
      | Error _ -> incr victim_errors);
      Vtime.sleep 2
    done
  in
  List.iter (Vtime.spawn s) [ flooder; victim ];
  ignore (Vtime.run ~max_rounds:200_000 ~tick:(fun () -> QWorld.tick w) s);
  (!victim_acked, !victim_errors, w.QWorld.inv_ok, w.QWorld.max_qlen)

(* ================================================================== *)
(* VC builders                                                          *)

let vc = Vc.prop

let errs_universe =
  [
    P.Bad_key;
    P.Too_large;
    P.Bad_crc;
    P.No_crc;
    P.Integrity;
    P.Read_only;
    P.Wrong_shard 7;
    P.Io "disk on fire";
    P.Overloaded;
  ]

let mk_sampler ?(mean_gap = 10.) ?(burst = W.Burst.always_on) seed =
  W.create ~burst ~n_keys:256 ~theta:1.1 ~service_xm:1.0 ~service_alpha:1.5
    ~service_cap:200. ~mean_gap ~seed ()

(* --- determinism ------------------------------------------------- *)

let gen_vcs () =
  [
    vc ~id:"wl/gen/trace-deterministic" ~category:"determinism" (fun () ->
        let t1 = W.trace ~n:5000 (mk_sampler 42L) in
        let t2 = W.trace ~n:5000 (mk_sampler 42L) in
        t1 = t2);
    vc ~id:"wl/gen/trace-seed-sensitive" ~category:"determinism" (fun () ->
        let t1 = W.trace ~n:5000 (mk_sampler 42L) in
        let t2 = W.trace ~n:5000 (mk_sampler 43L) in
        t1 <> t2);
    Vc.make ~id:"wl/gen/zipf-range" ~category:"determinism" (fun () ->
        let z = W.Zipf.create ~n:100 ~theta:0.9 in
        Vc.outcome_of_bool
          (Vc.forall_sampled ~id:"wl/gen/zipf-range" ~n:5000
             (fun g -> W.Zipf.sample z g)
             (fun i -> i >= 0 && i < 100)
             ()));
    Vc.make ~id:"wl/gen/pareto-range" ~category:"determinism" (fun () ->
        let p = W.Pareto.create ~cap:50. ~xm:2.0 ~alpha:1.5 () in
        Vc.outcome_of_bool
          (Vc.forall_sampled ~id:"wl/gen/pareto-range" ~n:5000
             (fun g -> (W.Pareto.sample p g, W.Pareto.sample_ticks p g))
             (fun (x, t) -> x >= 2.0 && x <= 50. && t >= 1 && t <= 50)
             ()));
    Vc.make ~id:"wl/gen/gap-nonneg" ~category:"determinism" (fun () ->
        Vc.outcome_of_bool
          (Vc.forall_sampled ~id:"wl/gen/gap-nonneg" ~n:5000
             (fun g -> W.arrival_gap g ~mean_gap:7.5)
             (fun gap -> gap >= 0)
             ()));
    vc ~id:"wl/gen/burst-defer" ~category:"determinism" (fun () ->
        let b = W.Burst.create ~on_len:3 ~off_len:7 in
        Vc.forall_range ~lo:0 ~hi:200
          (fun t ->
            let d = W.Burst.defer b ~time:t in
            d >= t
            && d <= t + W.Burst.period b
            && W.Burst.in_on b ~time:d
            && (W.Burst.in_on b ~time:t = (d = t)))
          ());
  ]

(* --- statistical soundness ---------------------------------------- *)

let empirical_counts ~seed ~draws z =
  let g = G.create seed in
  let counts = Array.make (W.Zipf.n z) 0 in
  for _ = 1 to draws do
    let i = W.Zipf.sample z g in
    counts.(i) <- counts.(i) + 1
  done;
  counts

let stat_vcs () =
  [
    vc ~id:"wl/stat/zipf-topk" ~category:"statistics" (fun () ->
        let z = W.Zipf.create ~n:1000 ~theta:1.1 in
        let draws = 60_000 in
        List.for_all
          (fun seed ->
            let counts = empirical_counts ~seed ~draws z in
            List.for_all
              (fun rank ->
                let emp = float_of_int counts.(rank) /. float_of_int draws in
                let ana = W.Zipf.prob z rank in
                Float.abs (emp -. ana) <= (0.15 *. ana) +. 0.002)
              [ 0; 1; 2; 3; 4 ])
          [ 11L; 22L; 33L ]);
    vc ~id:"wl/stat/zipf-monotone" ~category:"statistics" (fun () ->
        let z = W.Zipf.create ~n:1000 ~theta:1.1 in
        List.for_all
          (fun seed ->
            let counts = empirical_counts ~seed ~draws:60_000 z in
            counts.(0) > counts.(10)
            && counts.(10) > counts.(200)
            && counts.(0) > counts.(999))
          [ 11L; 22L; 33L ]);
    vc ~id:"wl/stat/duty-cycle" ~category:"statistics" (fun () ->
        List.for_all
          (fun (on_len, off_len) ->
            let b = W.Burst.create ~on_len ~off_len in
            let period = W.Burst.period b in
            let span = 10 * period in
            let on_ticks = ref 0 in
            for t = 0 to span - 1 do
              if W.Burst.in_on b ~time:t then incr on_ticks
            done;
            (* The configured duty cycle is an exact arithmetic fact of
               the phase machine, not a statistical estimate. *)
            float_of_int !on_ticks /. float_of_int span
            = W.Burst.duty_cycle b)
          [ (1, 0); (3, 7); (5, 5); (2, 8); (7, 3) ]);
    vc ~id:"wl/stat/heavy-tail-band" ~category:"statistics" (fun () ->
        let p = W.Pareto.create ~cap:1e9 ~xm:1.0 ~alpha:1.5 () in
        let analytic = W.Pareto.quantile p 0.99 /. W.Pareto.quantile p 0.50 in
        List.for_all
          (fun seed ->
            let g = G.create seed in
            let xs = List.init 50_000 (fun _ -> W.Pareto.sample p g) in
            let ratio =
              Bi_core.Stats.percentile 0.99 xs
              /. Bi_core.Stats.percentile 0.50 xs
            in
            ratio >= 0.6 *. analytic && ratio <= 1.6 *. analytic)
          [ 5L; 6L; 7L ]);
    vc ~id:"wl/stat/pareto-mean" ~category:"statistics" (fun () ->
        (* Unbounded mean is alpha/(alpha-1) * xm = 3.0; the cap shaves a
           little, the tick ceiling adds a little. *)
        let p = W.Pareto.create ~cap:200. ~xm:1.0 ~alpha:1.5 () in
        List.for_all
          (fun seed ->
            let g = G.create seed in
            let n = 50_000 in
            let sum = ref 0. in
            for _ = 1 to n do
              sum := !sum +. float_of_int (W.Pareto.sample_ticks p g)
            done;
            let mean = !sum /. float_of_int n in
            mean >= 2.0 && mean <= 4.5)
          [ 5L; 6L; 7L ]);
  ]

(* --- reservoir sketch --------------------------------------------- *)

let seeded_floats seed n =
  let g = G.create seed in
  List.init n (fun _ -> W.unit_float g)

let sketch_vcs () =
  [
    vc ~id:"wl/sketch/exact-below-cap" ~category:"sketch" (fun () ->
        List.for_all
          (fun n ->
            let xs = seeded_floats 9L n in
            let r = R.create ~capacity:4096 ~seed:1L () in
            List.iter (R.add r) xs;
            List.for_all
              (fun p ->
                R.percentile p r = Bi_core.Stats.percentile p xs)
              [ 0.5; 0.9; 0.99; 0.999; 1.0 ])
          [ 1; 2; 3; 10; 100; 1000; 4096 ]);
    vc ~id:"wl/sketch/bounded-error-1e6" ~category:"sketch" (fun () ->
        let r = R.create ~capacity:8192 ~seed:3L () in
        let g = G.create 4L in
        for _ = 1 to 1_000_000 do
          R.add r (W.unit_float g)
        done;
        (* Uniform[0,1): the true p-quantile is p itself. *)
        R.count r = 1_000_000
        && R.stored r = 8192
        && Float.abs (R.percentile 0.5 r -. 0.5) < 0.03
        && Float.abs (R.percentile 0.99 r -. 0.99) < 0.01
        && Float.abs (R.percentile 0.999 r -. 0.999) < 0.005);
    vc ~id:"wl/sketch/memory-bound" ~category:"sketch" (fun () ->
        let r = R.create ~capacity:64 ~seed:5L () in
        let g = G.create 6L in
        let ok = ref true in
        for i = 1 to 100_000 do
          R.add r (W.unit_float g);
          if i land 1023 = 0 then
            ok := !ok && R.stored r <= 64 && R.capacity r = 64
        done;
        !ok && R.stored r = 64 && R.count r = 100_000);
    vc ~id:"wl/sketch/deterministic" ~category:"sketch" (fun () ->
        let fill seed =
          let r = R.create ~capacity:128 ~seed () in
          List.iter (R.add r) (seeded_floats 7L 10_000);
          R.to_list r
        in
        fill 1L = fill 1L && fill 1L <> fill 2L);
    vc ~id:"wl/sketch/edges" ~category:"sketch" (fun () ->
        let empty_raises =
          let r = R.create ~capacity:8 ~seed:1L () in
          match R.percentile 0.5 r with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        let bad_cap_raises =
          match R.create ~capacity:0 ~seed:1L () with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        let single =
          let r = R.create ~capacity:8 ~seed:1L () in
          R.add r 42.;
          List.for_all
            (fun p -> R.percentile p r = 42.)
            [ 0.0; 0.5; 0.99; 1.0 ]
        in
        let all_equal =
          let r = R.create ~capacity:16 ~seed:1L () in
          for _ = 1 to 1000 do
            R.add r 7.
          done;
          R.percentile 0.5 r = 7.
          && R.percentile 0.999 r = 7.
          && R.mean r = 7. && R.min_seen r = 7. && R.max_seen r = 7.
        in
        empty_raises && bad_cap_raises && single && all_equal);
  ]

(* --- bounded fair queue ------------------------------------------- *)

let queue_vcs () =
  [
    vc ~id:"wl/queue/capacity-boundary" ~category:"queue" (fun () ->
        let q = Adm.create ~capacity:5 () in
        let first5 =
          List.for_all (fun c -> Adm.offer q ~client:c c) [ 0; 1; 2; 3; 4 ]
        in
        let sixth = Adm.offer q ~client:5 5 in
        first5 && (not sixth)
        && Adm.length q = 5
        && Adm.shed q = 1
        && Adm.admitted q = 5
        && Adm.high_water q = 5
        &&
        (* One take frees exactly one slot. *)
        match Adm.take q with
        | Some _ -> Adm.offer q ~client:5 5 && Adm.length q = 5
        | None -> false);
    vc ~id:"wl/queue/fifo-per-client" ~category:"queue" (fun () ->
        Vc.forall_range ~lo:1 ~hi:40
          (fun k ->
            let q = Adm.create ~capacity:64 () in
            for i = 1 to k do
              ignore (Adm.offer q ~client:0 i)
            done;
            let rec drain acc =
              match Adm.take q with
              | Some (0, x) -> drain (x :: acc)
              | Some _ -> acc
              | None -> acc
            in
            List.rev (drain []) = List.init k (fun i -> i + 1))
          ());
    vc ~id:"wl/queue/round-robin-64" ~category:"queue" (fun () ->
        let nclients = 64 and rounds = 3 in
        let q = Adm.create ~capacity:(nclients * rounds) () in
        for r = 1 to rounds do
          for c = 0 to nclients - 1 do
            ignore (Adm.offer q ~client:c (100 * c + r))
          done
        done;
        (* Dispatch must cycle the 64 clients in order, [rounds] times,
           serving each client's items FIFO. *)
        let ok = ref true in
        for r = 1 to rounds do
          for c = 0 to nclients - 1 do
            match Adm.take q with
            | Some (c', x) -> ok := !ok && c' = c && x = (100 * c) + r
            | None -> ok := false
          done
        done;
        !ok && Adm.take q = None && Adm.is_empty q);
    Vc.make ~id:"wl/queue/bounded-adversarial" ~category:"queue" (fun () ->
        Vc.outcome_of_bool
          (Vc.forall_sampled ~id:"wl/queue/bounded-adversarial" ~n:50
             (fun g -> g)
             (fun g ->
               let q = Adm.create ~capacity:8 ~per_client:3 () in
               let ok = ref true in
               for _ = 1 to 300 do
                 (if G.int g 3 < 2 then
                    ignore (Adm.offer q ~client:(G.int g 8) (G.int g 1000))
                  else ignore (Adm.take q));
                 ok :=
                   !ok
                   && Adm.length q <= 8
                   && Adm.high_water q <= 8
                   && Adm.check_invariants q
               done;
               !ok)
             ()));
    vc ~id:"wl/queue/per-client-cap" ~category:"queue" (fun () ->
        let q = Adm.create ~capacity:8 ~per_client:2 () in
        let flooder_admitted = ref 0 in
        for i = 1 to 8 do
          if Adm.offer q ~client:0 i then incr flooder_admitted
        done;
        (* The flooder owns at most its per-client share... *)
        !flooder_admitted = 2
        && Adm.shed q = 6
        && (* ...so the victim still gets in, despite arriving last. *)
        Adm.offer q ~client:1 99
        && Adm.take q = Some (0, 1)
        && Adm.take q = Some (1, 99));
    Vc.make ~id:"wl/queue/conservation" ~category:"queue" (fun () ->
        Vc.outcome_of_bool
          (Vc.forall_sampled ~id:"wl/queue/conservation" ~n:50
             (fun g -> g)
             (fun g ->
               let q = Adm.create ~capacity:6 ~per_client:2 () in
               let offered = ref 0 and taken = ref 0 in
               let ok = ref true in
               for _ = 1 to 200 do
                 (if G.int g 2 = 0 then begin
                    incr offered;
                    ignore (Adm.offer q ~client:(G.int g 5) 0)
                  end
                  else
                    match Adm.take q with
                    | Some _ -> incr taken
                    | None -> ());
                 ok :=
                   !ok
                   && Adm.admitted q + Adm.shed q = !offered
                   && Adm.admitted q = !taken + Adm.length q
               done;
               !ok)
             ()));
    vc ~id:"wl/queue/shed-no-residue" ~category:"queue" (fun () ->
        let q = Adm.create ~capacity:1 () in
        let admitted = Adm.offer q ~client:0 10 in
        let shed = Adm.offer q ~client:1 20 in
        admitted && (not shed)
        && Adm.clients_waiting q = 1
        && Adm.length q = 1
        && Adm.take q = Some (0, 10)
        && Adm.clients_waiting q = 0
        && Adm.is_empty q);
  ]

(* --- protocol ------------------------------------------------------ *)

let protocol_vcs () =
  [
    vc ~id:"wl/protocol/err-roundtrip-all" ~category:"protocol" (fun () ->
        Vc.forall_list errs_universe
          (fun e ->
            match P.decode_resp (P.encode_resp (P.Err e)) ~off:0 with
            | Some (P.Err e', _) -> e = e'
            | _ -> false)
          ());
    vc ~id:"wl/protocol/overloaded-sealed-roundtrip" ~category:"protocol"
      (fun () ->
        let frame = P.seal ~id:77 (P.encode_resp (P.Err P.Overloaded)) in
        match P.unseal frame with
        | Some (77, body) -> (
            match P.decode_resp body ~off:0 with
            | Some (P.Err P.Overloaded, _) -> true
            | _ -> false)
        | _ -> false);
    vc ~id:"wl/protocol/overloaded-retryable" ~category:"protocol" (fun () ->
        P.retryable P.Overloaded
        && P.retryable P.Bad_crc
        && (not (P.retryable (P.Wrong_shard 3)))
        && (not (P.retryable P.Read_only))
        &&
        let msg = Format.asprintf "%a" P.pp_err P.Overloaded in
        String.length msg > 0);
  ]

(* --- shed never half-applies --------------------------------------- *)

(* Direct single-node scenario: establish k=v, wedge the queue full,
   then shed a Delete.  Returns (still_present, applied_delta, get_resp)
   observed after the shed — the correct queue must leave everything
   untouched. *)
let shed_probe ?(half_apply = false) () =
  let store = NC.mem_store () in
  let core = NC.create store in
  let q = NC.Queued.create ~capacity:1 core in
  let submit ~client ~id req =
    let resp = NC.Queued.submit q ~client ~id req in
    if half_apply && resp <> None then apply_shed store req;
    resp
  in
  (* k=v through the normal path. *)
  assert (submit ~client:0 ~id:1 (P.Get "warm") = None);
  ignore (NC.Queued.serve q);
  let put = P.Put { key = "k"; value = "v"; crc = P.crc32 "v"; txn = None } in
  assert (submit ~client:0 ~id:2 put = None);
  ignore (NC.Queued.serve q);
  let applied0 = NC.applied core in
  let before = NC.mem_contents store in
  (* Wedge: one admitted request fills the whole capacity-1 queue. *)
  assert (submit ~client:1 ~id:3 (P.Get "k") = None);
  let shed_resp = submit ~client:2 ~id:4 (P.Delete { key = "k"; txn = None }) in
  let after = NC.mem_contents store in
  let applied_delta = NC.applied core - applied0 in
  ignore (NC.Queued.serve q);
  let get_resp =
    match submit ~client:0 ~id:5 (P.Get "k") with
    | None -> (
        match NC.Queued.serve q with
        | [ (_, _, resp) ] -> resp
        | _ -> P.Err (P.Io "serve"))
    | Some r -> r
  in
  (shed_resp, before = after, applied_delta, get_resp)

let value_resp v = P.Value { value = v; crc = P.crc32 v }

let shed_vcs () =
  let exactly_once ~family ~rates =
    vc
      ~id:(Printf.sprintf "wl/shed/retry-exactly-once-%s" family)
      ~category:"shed"
      (fun () ->
        List.for_all
          (fun seed ->
            let r =
              shed_scenario
                ~tag:(Printf.sprintf "eo-%s-%d" family seed)
                ~seed ~rates ()
            in
            (* Every op eventually acked, and each acked effective
               mutation hit the store exactly once — sheds and retries
               never double- or half-apply. *)
            r.rc.errors = [] && r.applied = r.acked_muts && r.inv_ok)
          [ 1; 2; 3 ])
  in
  [
    vc ~id:"wl/shed/no-mutation" ~category:"shed" (fun () ->
        let shed_resp, unchanged, applied_delta, get_resp = shed_probe () in
        shed_resp = Some (P.Err P.Overloaded)
        && unchanged && applied_delta = 0
        && get_resp = value_resp "v");
    exactly_once ~family:"pass" ~rates:rates_pass;
    exactly_once ~family:"drop" ~rates:rates_drop;
    exactly_once ~family:"dup" ~rates:rates_dup;
    vc ~id:"wl/shed/sheds-observed" ~category:"shed" (fun () ->
        (* Under fault-free links every shed answer reaches its client,
           so the server- and client-side shed counters must agree — and
           the scenario is genuinely overloaded, so both are nonzero. *)
        let r = shed_scenario ~tag:"observed" ~seed:9 ~rates:rates_pass () in
        r.queue_shed > 0
        && r.client_sheds = r.queue_shed
        && r.max_qlen <= r.capacity
        && r.rc.errors = []);
  ]

(* --- no starvation -------------------------------------------------- *)

let starve_vcs () =
  [
    vc ~id:"wl/starve/fair-under-flood" ~category:"starvation" (fun () ->
        let acked, errors, inv_ok, max_qlen =
          flood_scenario ~tag:"fair" ~seed:21 ()
        in
        acked = 5 && errors = 0 && inv_ok && max_qlen <= 4);
    vc ~id:"wl/starve/min-share" ~category:"starvation" (fun () ->
        (* 8 clients under sustained 2x overload, served strictly
           round-robin: everyone's service share stays equal. *)
        let q = Adm.create ~capacity:16 ~per_client:2 () in
        let served = Array.make 8 0 in
        for _round = 1 to 200 do
          for c = 0 to 7 do
            ignore (Adm.offer q ~client:c 0)
          done;
          (* Serve half the offered rate. *)
          for _ = 1 to 4 do
            match Adm.take q with
            | Some (c, _) -> served.(c) <- served.(c) + 1
            | None -> ()
          done
        done;
        let mn = Array.fold_left min max_int served in
        let mx = Array.fold_left max 0 served in
        mn > 0 && mx - mn <= 1);
    vc ~id:"wl/starve/engine-all-complete" ~category:"starvation" (fun () ->
        (* Closed-loop overload: every client finishes every op — the
           worst-off client included — and nobody gives up. *)
        let s =
          E.run
            {
              E.default with
              clients = 256;
              ops_per_client = 3;
              mode = E.Closed { think = 5 };
              capacity = 32;
              per_client = Some 2;
              nodes = 1;
              service_cap = 20.;
              retry_max = 60;
              seed = 77L;
            }
        in
        s.E.gave_up = 0
        && s.E.min_client_completed = 3
        && s.E.completed = 256 * 3
        && s.E.errors = 0 && s.E.invariants_ok);
  ]

(* --- linearizability under shedding + fault adversaries ------------- *)

let lin_vcs () =
  List.concat_map
    (fun (family, rates) ->
      List.map
        (fun seed ->
          vc
            ~id:(Printf.sprintf "wl/lin/shed-%s/s%d" family seed)
            ~category:"linearizability"
            (fun () ->
              let r =
                shed_scenario
                  ~tag:(Printf.sprintf "lin-%s-%d" family seed)
                  ~seed:(100 + seed) ~rates ()
              in
              r.rc.errors = [] && KV.linearizable r.rc && r.inv_ok
              && r.max_qlen <= r.capacity))
        [ 1; 2; 3 ])
    [
      ("pass", rates_pass);
      ("drop", rates_drop);
      ("dup", rates_dup);
      ("mixed", rates_mixed);
    ]

(* --- engine --------------------------------------------------------- *)

let engine_base =
  {
    E.default with
    clients = 1500;
    ops_per_client = 2;
    mode = E.Open { mean_gap = 2000. };
    capacity = 32;
    nodes = 2;
    n_keys = 128;
    reservoir = 512;
    seed = 11L;
  }

(* Offered load ~2x one node's service capacity: sheds guaranteed. *)
let engine_overload =
  { engine_base with nodes = 1; mode = E.Open { mean_gap = 2250. } }

let engine_vcs () =
  [
    vc ~id:"wl/engine/deterministic" ~category:"engine" (fun () ->
        E.run engine_base = E.run engine_base);
    vc ~id:"wl/engine/seed-sensitive" ~category:"engine" (fun () ->
        E.run engine_base <> E.run { engine_base with seed = 12L });
    vc ~id:"wl/engine/conservation" ~category:"engine" (fun () ->
        List.for_all
          (fun cfg ->
            let s = E.run cfg in
            (* Run-to-quiescence accounting: every submission was either
               shed or eventually completed; every logical op either
               completed or was abandoned; mutations applied never exceed
               completions. *)
            s.E.attempts = s.E.completed + s.E.shed
            && s.E.issued = s.E.completed + s.E.gave_up
            && s.E.issued = cfg.E.clients * cfg.E.ops_per_client
            && s.E.applied <= s.E.completed
            && s.E.errors = 0)
          [ engine_base; engine_overload ]);
    vc ~id:"wl/engine/bounded-queue" ~category:"engine" (fun () ->
        let s = E.run engine_overload in
        s.E.shed > 0
        && s.E.max_queue <= engine_overload.E.capacity
        && s.E.invariants_ok);
    vc ~id:"wl/engine/knee" ~category:"engine" (fun () ->
        (* Same offered overload, with and without admission control:
           the bounded queue sheds and keeps the tail flat; the unbounded
           queue absorbs everything and the tail explodes. *)
        let adm = E.run engine_overload in
        let noadm =
          E.run { engine_overload with capacity = E.no_admission }
        in
        adm.E.max_queue <= engine_overload.E.capacity
        && noadm.E.shed = 0
        && noadm.E.max_queue > engine_overload.E.capacity
        && noadm.E.p99 > adm.E.p99
        && noadm.E.p999 > adm.E.p999);
  ]

(* --- mutation self-checks ------------------------------------------- *)

let mutation_vcs () =
  [
    vc ~id:"wl/mutation/half-apply-caught" ~category:"mutation" (fun () ->
        (* The correct queue passes the no-mutation probe... *)
        let _, unchanged_ok, delta_ok, get_ok = shed_probe () in
        (* ...and the half-applying mutant is caught by it: the shed
           Delete leaked into the store, so the snapshot changed and the
           later Get sees the deletion that "never happened". *)
        let _, unchanged_mut, _, get_mut = shed_probe ~half_apply:true () in
        unchanged_ok && delta_ok = 0 && get_ok = value_resp "v"
        && (not unchanged_mut)
        && get_mut = P.Missing);
    vc ~id:"wl/mutation/half-apply-lin-caught" ~category:"mutation"
      (fun () ->
        (* End-to-end variant: under the mutant, retried-after-shed
           mutations stop matching the store — the exactly-once
           accounting identity breaks. *)
        let correct =
          shed_scenario ~tag:"mut-eo-c" ~seed:4 ~rates:rates_pass ()
        in
        let mutant =
          let s = Vtime.make () in
          (* [service_rate:0]: the queue never drains, so once wedged it
             sheds every later arrival — the only way "leak" can reach
             the store is through the mutant's half-apply. *)
          let w =
            QWorld.create ~service_rate:0 ~per_client:1 ~capacity:2
              ~half_apply:true ~nclients:3 ~tag:"mut-eo-m" ~seed:4
              ~rates:rates_pass ~limit:6 s
          in
          let applied_probe () =
            NC.applied (NC.Queued.node w.QWorld.qnode)
          in
          let store_probe () = NC.mem_contents w.QWorld.store in
          let before = store_probe () in
          let cl =
            RC.create ~config:(patient_config 4) ~client:0 (QWorld.clock w)
              (QWorld.endpoint w 0)
          in
          (* Wedge the queue full via two other clients' admitted
             requests, then retry a Put against it: every attempt is
             shed, nothing is ever acked, yet under the mutant the value
             leaks into the store — without touching the dup table. *)
          ignore (NC.Queued.submit w.QWorld.qnode ~client:1 ~id:900 (P.Get "x"));
          ignore (NC.Queued.submit w.QWorld.qnode ~client:2 ~id:901 (P.Get "x"));
          let shed_leaked = ref false in
          let fiber () =
            let r = RC.put cl ~key:"leak" ~value:"z" in
            shed_leaked :=
              (match r with Ok () -> false | Error _ -> true)
              && List.mem_assoc "leak" (store_probe ())
              && applied_probe () = 0 && before = []
          in
          Vtime.spawn s fiber;
          ignore
            (Vtime.run ~max_rounds:5000 ~tick:(fun () -> QWorld.tick w) s);
          !shed_leaked
        in
        correct.applied = correct.acked_muts && mutant);
    vc ~id:"wl/mutation/unfair-starves-caught" ~category:"mutation"
      (fun () ->
        (* The fair queue gets the victim through a flood untouched; the
           unfair single-FIFO mutant starves it — and the no-starvation
           check sees exactly that. *)
        let fair_acked, fair_errors, _, _ =
          flood_scenario ~tag:"mut-fair" ~seed:31 ()
        in
        let unfair_acked, unfair_errors, _, _ =
          flood_scenario ~tag:"mut-unfair" ~seed:31 ~unfair:true ()
        in
        fair_acked = 5 && fair_errors = 0
        && unfair_acked < 5
        && unfair_errors > 0);
  ]

let vcs () =
  gen_vcs () @ stat_vcs () @ sketch_vcs () @ queue_vcs () @ protocol_vcs ()
  @ shed_vcs () @ starve_vcs () @ lin_vcs () @ engine_vcs ()
  @ mutation_vcs ()
