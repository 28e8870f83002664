module P = Protocol
module RC = Resilient_client
module FP = Bi_fault.Fault_plan
module Vc = Bi_core.Vc
module Vtime = Bi_core.Vtime
module World = Sim_world
module KV = Store_spec

(* Client fibers run on the {!Vtime} scheduler against the nodes of the
   {!Sim_world}, which journal as netd's do; virtual time is the only
   clock anywhere in the suite, so runs are replayable.  Histories are
   checked against the one key-value specification, {!Store_spec}. *)

let record rc s = KV.record rc ~now:(fun () -> Vtime.now s)

(* ================================================================== *)
(* Plans and configurations                                            *)

let rates_pass = FP.no_faults
let rates_drop = { FP.no_faults with drop = 180 }
let rates_dup = { FP.no_faults with duplicate = 180 }
let rates_reorder = { FP.no_faults with reorder = 180 }

let rates_corrupt =
  { FP.no_faults with corrupt = 150; drop = 50 }

let rates_stall = { FP.no_faults with stall = 150; max_stall = 4 }

let rates_mixed =
  { FP.drop = 60; duplicate = 50; reorder = 50; corrupt = 40; stall = 40;
    max_stall = 3 }

let seeded_node ~tag ~i ~seed ~rates ~limit () =
  World.node
    ~name:(Printf.sprintf "n%d" i)
    ~req_plan:
      (FP.seeded ~name:(Printf.sprintf "rs/%s/n%d/req" tag i) ~seed ~rates
         ~limit ())
    ~resp_plan:
      (FP.seeded ~name:(Printf.sprintf "rs/%s/n%d/resp" tag i) ~seed ~rates
         ~limit ())
    ()

let patient_config = World.patient_config

let attempt_timeout = 10

(* ================================================================== *)
(* Scripted single-node scenarios                                      *)

let scripted_world ~req ~resp =
  let s = Vtime.make () in
  let node =
    World.node ~name:"n0" ~req_plan:(FP.script req)
      ~resp_plan:(FP.script resp) ()
  in
  let w = World.create s [ node ] in
  (s, w, node)

let run_world s w fibers =
  List.iter (Vtime.spawn s) fibers;
  Vtime.run ~tick:(fun () -> World.tick w) s

let put_req key value = P.Put { key; value; crc = P.crc32 value; txn = None }

(* One-shot "plain" request: no retry, no txn — the positive control's
   victim.  True when the request was lost. *)
let plain_loses decisions =
  let s, w, _ = scripted_world ~req:decisions ~resp:[] in
  let ep = World.endpoint w 0 ~attempt_timeout:20 in
  let result = ref None in
  ignore
    (run_world s w [ (fun () -> result := Some (ep.RC.rpc (put_req "k" "v"))) ]);
  match !result with Some (Ok P.Done) -> false | _ -> true

let resilient_survives decisions =
  let s, w, node = scripted_world ~req:decisions ~resp:[] in
  let ep = World.endpoint w 0 ~attempt_timeout in
  let client =
    RC.create ~config:(patient_config 7) ~client:1 (World.clock w) ep
  in
  let result = ref (Error RC.Breaker_open) in
  ignore (run_world s w [ (fun () -> result := RC.put client ~key:"k" ~value:"v") ]);
  !result = Ok () && Node_core.applied node.World.core = 1

let positive_plan = [ FP.Drop; FP.Drop; FP.Stall 2; FP.Duplicate ]

type control = {
  plain_failed : bool;
  resilient_ok : bool;
  shrunk : FP.decision list;
  replay_fails : bool;
}

let positive_control () =
  let shrunk = FP.shrink ~fails:plain_loses positive_plan in
  {
    plain_failed = plain_loses positive_plan;
    resilient_ok = resilient_survives positive_plan && resilient_survives shrunk;
    shrunk;
    replay_fails = plain_loses shrunk;
  }

(* Scripted retry scenarios against one node; returns (client result,
   applied, dup_hits, retries). *)
let scripted_retry ~req ~resp ~strip_txn =
  let s, w, node = scripted_world ~req ~resp in
  let ep = World.endpoint w 0 ~attempt_timeout in
  let ep =
    if strip_txn then { ep with RC.rpc = (fun r -> ep.RC.rpc (P.strip_txn r)) }
    else ep
  in
  let client =
    RC.create ~config:(patient_config 11) ~client:1 (World.clock w) ep
  in
  let result = ref (Error RC.Breaker_open) in
  ignore (run_world s w [ (fun () -> result := RC.put client ~key:"k" ~value:"v") ]);
  ( !result,
    Node_core.applied node.World.core,
    Node_core.dup_hits node.World.core,
    (RC.stats client).RC.retries )

(* ================================================================== *)
(* Seeded adversary workloads                                          *)

(* Exactly-once under an adversary family: every mutation writes a
   distinct key, so after the run [applied] must equal the number of
   keys materialised — any double-apply (or phantom apply of an unacked
   delete) breaks the equation. *)
let exactly_once ~tag ~seed ~rates =
  let s = Vtime.make () in
  let node = seeded_node ~tag ~i:0 ~seed ~rates ~limit:8 () in
  let w = World.create s [ node ] in
  let ep = World.endpoint w 0 ~attempt_timeout in
  let client =
    RC.create ~config:(patient_config (seed + 13)) ~client:1 (World.clock w) ep
  in
  let acks = ref 0 in
  let failures = ref 0 in
  let fiber () =
    for i = 1 to 8 do
      match RC.put client ~key:(Printf.sprintf "k%d" i) ~value:(string_of_int i)
      with
      | Ok () -> incr acks
      | Error _ -> incr failures
    done
  in
  ignore (run_world s w [ fiber ]);
  let stored = List.length (Node_core.mem_contents node.World.store) in
  let applied = Node_core.applied node.World.core in
  (!acks, !failures, applied, stored)

let perform_set set =
  KV.perform ~put:(Replica_set.put set) ~get:(Replica_set.get set)
    ~delete:(Replica_set.delete set) ~pp_error:Replica_set.pp_error

(* Two fault-free replicas behind one replica-set client. *)
let quiet_pair ~config =
  let s = Vtime.make () in
  let w =
    World.create s
      (List.init 2 (fun i ->
           World.node ~name:(Printf.sprintf "n%d" i)
             ~req_plan:(FP.script []) ~resp_plan:(FP.script []) ()))
  in
  let eps = List.init 2 (fun i -> World.endpoint w i ~attempt_timeout) in
  (s, w, Replica_set.create ~config ~client:1 (World.clock w) eps)

(* Few attempts and a short deadline, so a dead replica fails over fast. *)
let failover_config seed =
  { (patient_config seed) with max_attempts = 2; deadline = 60 }

(* Linearizability workload: [procs] fibers over a two-key space against
   a replica set, with optional crash / crash+restart of node 0 driven
   by a control fiber.  Returns (recorder, world, set). *)
let lin_run ~tag ~seed ~rates ~replicas ~procs ~ops ?(crash = `No) () =
  let s = Vtime.make () in
  let nodes =
    List.init replicas (fun i ->
        seeded_node ~tag ~i ~seed:(seed + i) ~rates ~limit:6 ())
  in
  let w = World.create s nodes in
  let eps =
    List.init replicas (fun i -> World.endpoint w i ~attempt_timeout)
  in
  let set =
    (* 14 attempts beat the worst-case combined fault budget of one
       node's two channels (2 × limit 6), so bounded adversaries can
       never exhaust a call. *)
    Replica_set.create
      ~config:{ (patient_config (seed + 3)) with max_attempts = 14 }
      ~client:1 (World.clock w) eps
  in
  let rc = KV.recorder () in
  let value proc i = Printf.sprintf "v%d-%d" proc i in
  let fiber proc () =
    for i = 1 to ops do
      let key = if (i + proc) mod 2 = 0 then "a" else "b" in
      let op = KV.mixed_op ~proc ~i ~key ~value:(value proc i) () in
      record rc s proc op (fun () -> perform_set set op);
      Vtime.sleep (1 + ((proc + i) mod 3))
    done
  in
  let fibers = List.init procs (fun p -> fiber (p + 1)) in
  let fibers =
    match crash with
    | `No -> fibers
    | `Crash at ->
        fibers
        @ [
            (fun () ->
              Vtime.sleep at;
              World.crash w 0);
          ]
    | `Crash_restart (at, down) ->
        fibers
        @ [
            (fun () ->
              Vtime.sleep at;
              World.crash w 0;
              Vtime.sleep down;
              World.restart w 0);
          ]
  in
  ignore (run_world s w fibers);
  (rc, w, set)

(* ================================================================== *)
(* Breaker scenarios (manual clock, no sim needed)                     *)

let manual_clock () =
  let t = ref 0 in
  ({ RC.now = (fun () -> !t); sleep = (fun n -> t := !t + max 0 n) }, t)

let breaker_config ~cooldown =
  {
    RC.max_attempts = 1;
    backoff_base = 1;
    backoff_cap = 1;
    jitter_pm = 0;
    breaker_threshold = 3;
    breaker_cooldown = cooldown;
    deadline = 1_000_000;
    seed = 1;
  }

(* Endpoint that fails while [down ()] holds, then answers [Done]. *)
let flaky_endpoint down =
  {
    RC.name = "flaky";
    rpc = (fun _ -> if down () then Error "down" else Ok P.Done);
  }

(* An outage that heals at [heal_at]: with a finite cooldown the breaker
   must recover (half-open probe reconnects); the never-half-open mutant
   loses availability forever.  Returns successes after the heal. *)
let outage_recovery ~cooldown =
  let clock, t = manual_clock () in
  let ep = flaky_endpoint (fun () -> !t < 50) in
  let c = RC.create ~config:(breaker_config ~cooldown) ~client:1 clock ep in
  (* Outage: enough calls to trip the breaker. *)
  for _ = 1 to 5 do
    ignore (RC.put c ~key:"k" ~value:"v");
    t := !t + 2
  done;
  t := 60;
  (* Healed: count calls that get through over a generous window. *)
  let ok = ref 0 in
  for _ = 1 to 20 do
    (match RC.put c ~key:"k" ~value:"v" with Ok () -> incr ok | Error _ -> ());
    t := !t + 10
  done;
  !ok

(* Shadow automaton for breaker conformance: an independent replay of
   the specification over the observed per-attempt outcomes.  Checks
   that no attempt was admitted while the spec says the breaker was
   open, and that the final state and open/close counts agree. *)
let breaker_conformance seed =
  let clock, t = manual_clock () in
  let plan =
    FP.seeded ~name:"rs/breaker/conformance" ~seed
      ~rates:{ FP.no_faults with drop = 400 }
      ()
  in
  let log = ref [] in
  let ep =
    {
      RC.name = "seeded";
      rpc =
        (fun _ ->
          let outcome =
            if FP.next plan = FP.Pass then Ok P.Done else Error "injected"
          in
          log := (!t, Result.is_ok outcome) :: !log;
          outcome);
    }
  in
  let cfg = breaker_config ~cooldown:7 in
  let c = RC.create ~config:cfg ~client:1 clock ep in
  for i = 1 to 60 do
    ignore (RC.put c ~key:"k" ~value:"v");
    t := !t + 1 + (i mod 3)
  done;
  let attempts = List.rev !log in
  (* Replay the spec. *)
  let spec_state = ref `Closed in
  let failures = ref 0 in
  let opens = ref 0 in
  let closes = ref 0 in
  let conforms = ref true in
  List.iter
    (fun (time, ok) ->
      (* Admission per the spec: half-open transition happens lazily at
         the first call past the cooldown. *)
      (match !spec_state with
      | `Open until when time >= until -> spec_state := `Half_open
      | _ -> ());
      (match !spec_state with
      | `Open _ -> conforms := false (* attempt admitted while open *)
      | _ -> ());
      if ok then begin
        (match !spec_state with
        | `Half_open ->
            spec_state := `Closed;
            incr closes
        | _ -> ());
        failures := 0
      end
      else
        match !spec_state with
        | `Half_open ->
            spec_state := `Open (time + cfg.RC.breaker_cooldown);
            incr opens
        | `Closed ->
            incr failures;
            if !failures >= cfg.RC.breaker_threshold then begin
              failures := 0;
              spec_state := `Open (time + cfg.RC.breaker_cooldown);
              incr opens
            end
        | `Open _ -> ())
    attempts;
  let st = RC.stats c in
  let state_agrees =
    match (RC.breaker_state c, !spec_state) with
    | RC.Closed, `Closed | RC.Half_open, `Half_open -> true
    | RC.Open_until a, `Open b -> a = b
    | _ -> false
  in
  !conforms && state_agrees && st.RC.breaker_opens = !opens
  && st.RC.breaker_closes = !closes
  && attempts <> []

(* ================================================================== *)
(* Deadline soundness                                                  *)

let deadline_sound seed =
  let s = Vtime.make () in
  let node =
    (* Unbounded hostile plan: the deadline, not the fault budget, must
       end the call. *)
    World.node ~name:"n0"
      ~req_plan:
        (FP.seeded ~name:"rs/deadline/req" ~seed
           ~rates:{ FP.no_faults with drop = 800; stall = 150; max_stall = 6 }
           ())
      ~resp_plan:
        (FP.seeded ~name:"rs/deadline/resp" ~seed
           ~rates:{ FP.no_faults with drop = 800 }
           ())
      ()
  in
  let w = World.create s [ node ] in
  let ep = World.endpoint w 0 ~attempt_timeout in
  let cfg =
    {
      RC.max_attempts = 1_000;
      backoff_base = 2;
      backoff_cap = 8;
      jitter_pm = 1;
      breaker_threshold = 10_000;
      breaker_cooldown = 10;
      deadline = 60;
      seed;
    }
  in
  let client = RC.create ~config:cfg ~client:1 (World.clock w) ep in
  let duration = ref max_int in
  let outcome = ref (Ok ()) in
  ignore
    (run_world s w
       [
         (fun () ->
           let t0 = Vtime.now s in
           outcome := RC.put client ~key:"k" ~value:"v";
           duration := Vtime.now s - t0);
       ]);
  (* Backoff sleeps are clamped to the remaining budget, so the only
     thing that can outlive the deadline is the one attempt already in
     flight when it passes — nothing more. *)
  let slack = attempt_timeout in
  !duration <= cfg.RC.deadline + slack
  && match !outcome with Ok () | Error RC.Deadline -> true | Error _ -> false

(* ================================================================== *)
(* Stale-read mutant: failover without fencing                         *)

(* The buggy replica client the fencing exists to rule out: writes go to
   the primary only, reads fail over to the backup without asking
   whether it ever saw the write. *)
let naive_failover_history () =
  let s, w, _ = scripted_world ~req:[] ~resp:[] in
  let backup =
    World.node ~name:"n1" ~req_plan:(FP.script [])
      ~resp_plan:(FP.script []) ()
  in
  let w2 =
    World.create s [ w.World.nodes.(0); backup ]
  in
  let ep0 = World.endpoint w2 0 ~attempt_timeout in
  let ep1 = World.endpoint w2 1 ~attempt_timeout in
  let cfg = failover_config 5 in
  let clock = World.clock w2 in
  let c0 = RC.create ~config:cfg ~client:1 clock ep0 in
  let c1 = RC.create ~config:cfg ~client:2 clock ep1 in
  let perform c =
    KV.perform ~put:(RC.put c) ~get:(RC.get c) ~delete:(RC.delete c)
      ~pp_error:RC.pp_error
  in
  let rc = KV.recorder () in
  let fiber () =
    (* Seed both replicas with v0 (a correct initial full write). *)
    record rc s 1 (KV.Put ("a", "v0")) (fun () ->
        match (RC.put c0 ~key:"a" ~value:"v0", RC.put c1 ~key:"a" ~value:"v0")
        with
        | Ok (), Ok () -> Ok KV.Done
        | _ -> Error "seed write failed");
    Vtime.sleep 1;
    (* The bug: the next write reaches the primary only. *)
    let put = KV.Put ("a", "v1") in
    record rc s 1 put (fun () -> perform c0 put);
    Vtime.sleep 1;
    World.crash w2 0;
    (* Naive failover: primary dead, read the backup unfenced. *)
    let get = KV.Get "a" in
    record rc s 1 get (fun () ->
        match perform c0 get with Ok _ as r -> r | Error _ -> perform c1 get)
  in
  ignore (run_world s w2 [ fiber ]);
  rc

(* The correct counterpart: the same crash through [Replica_set], whose
   write fan-out and fencing keep the history linearizable. *)
let fenced_failover_history () =
  let s, w, set = quiet_pair ~config:(failover_config 5) in
  let rc = KV.recorder () in
  let run op = record rc s 1 op (fun () -> perform_set set op) in
  let fiber () =
    run (KV.Put ("a", "v0"));
    Vtime.sleep 1;
    run (KV.Put ("a", "v1"));
    Vtime.sleep 1;
    World.crash w 0;
    run (KV.Get "a")
  in
  ignore (run_world s w [ fiber ]);
  (rc, Replica_set.failovers set)

(* ================================================================== *)
(* The VCs                                                             *)

let cat_protocol = "rs/protocol"
let cat_node = "rs/node"
let cat_backoff = "rs/backoff"
let cat_breaker = "rs/breaker"
let cat_client = "rs/client"
let cat_lin = "rs/lin"
let cat_replica = "rs/replica"
let cat_mutation = "rs/mutation"
let cat_crash = "rs/crash"

let sample_txns = [ None; Some { P.client = 1; seq = 1 }; Some { P.client = 7; seq = 123456 } ]

let sample_reqs =
  List.concat_map
    (fun txn ->
      [
        P.Put { key = "k1"; value = "hello"; crc = P.crc32 "hello"; txn };
        P.Delete { key = "k1"; txn };
      ])
    sample_txns
  @ [ P.Get "some-key"; P.List; P.Ping; P.Shutdown ]

let sample_errs =
  [
    P.Bad_key; P.Too_large; P.Bad_crc; P.No_crc; P.Integrity; P.Read_only;
    P.Io "disk on fire"; P.Wrong_shard 0; P.Wrong_shard 3;
  ]

let sample_resps =
  [
    P.Done;
    P.Value { value = "v"; crc = P.crc32 "v" };
    P.Missing;
    P.Listing [ "a"; "b"; "c" ];
    P.Listing [];
    P.Pong { health = P.Serving; epoch = 0 };
    P.Pong { health = P.Degraded; epoch = 42 };
  ]
  @ List.map (fun e -> P.Err e) sample_errs

let roundtrip_req r =
  match P.decode_req (P.encode_req r) ~off:0 with
  | Some (r', n) -> r' = r && n = Bytes.length (P.encode_req r)
  | None -> false

let roundtrip_resp r =
  match P.decode_resp (P.encode_resp r) ~off:0 with
  | Some (r', n) -> r' = r && n = Bytes.length (P.encode_resp r)
  | None -> false

let protocol_vcs =
  [
    Vc.prop ~id:"rs/protocol/req/roundtrip" ~category:cat_protocol
      (Vc.forall_list sample_reqs roundtrip_req);
    Vc.prop ~id:"rs/protocol/resp/roundtrip" ~category:cat_protocol
      (Vc.forall_list sample_resps roundtrip_resp);
    Vc.prop ~id:"rs/protocol/decode/total" ~category:cat_protocol
      (Vc.forall_sampled ~id:"rs/protocol/decode/total" ~n:400
         (fun g ->
           let src =
             List.nth sample_reqs
               (Bi_core.Gen.int g (List.length sample_reqs))
           in
           FP.corrupt_bytes g (P.encode_req src))
         (fun b ->
           (* Must never raise, and must never read past the buffer. *)
           match P.decode_req b ~off:0 with
           | None -> true
           | Some (_, n) -> n <= Bytes.length b));
    Vc.prop ~id:"rs/protocol/retryable" ~category:cat_protocol
      (Vc.forall_list sample_errs (fun e -> P.retryable e = (e = P.Bad_crc)));
  ]

let with_mem_node ?write_faults ?dup_capacity f =
  let store = Node_core.mem_store ?write_faults () in
  let core = Node_core.create ?dup_capacity ~epoch:0 store in
  f core store

let put_txn_req ~client ~seq key value =
  P.Put
    { key; value; crc = P.crc32 value; txn = Some { P.client; seq } }

let node_vcs =
  [
    Vc.prop ~id:"rs/node/dedup/put" ~category:cat_node (fun () ->
        with_mem_node (fun core _ ->
            let r1 = Node_core.handle core (put_txn_req ~client:1 ~seq:1 "k" "v") in
            let r2 = Node_core.handle core (put_txn_req ~client:1 ~seq:1 "k" "v") in
            r1 = P.Done && r2 = P.Done
            && Node_core.applied core = 1
            && Node_core.dup_hits core = 1));
    Vc.prop ~id:"rs/node/dedup/delete" ~category:cat_node (fun () ->
        with_mem_node (fun core _ ->
            ignore (Node_core.handle core (put_txn_req ~client:1 ~seq:1 "k" "v"));
            let d = P.Delete { key = "k"; txn = Some { P.client = 1; seq = 2 } } in
            let r1 = Node_core.handle core d in
            let r2 = Node_core.handle core d in
            (* The retry must echo [Done], not [Missing]: the table, not
               the store, answers it. *)
            r1 = P.Done && r2 = P.Done && Node_core.applied core = 2));
    Vc.prop ~id:"rs/node/dedup/per-client" ~category:cat_node (fun () ->
        with_mem_node (fun core _ ->
            (* Same seq from two clients: distinct transactions. *)
            ignore (Node_core.handle core (put_txn_req ~client:1 ~seq:1 "k1" "a"));
            ignore (Node_core.handle core (put_txn_req ~client:2 ~seq:1 "k2" "b"));
            Node_core.applied core = 2 && Node_core.dup_hits core = 0));
    Vc.prop ~id:"rs/node/dedup/bounded" ~category:cat_node (fun () ->
        with_mem_node ~dup_capacity:2 (fun core _ ->
            (* Capacity 2: seq 1 is evicted by seq 3; its retry re-applies
               (the documented cost of a bounded table) while seq 3's
               retry is still absorbed. *)
            for i = 1 to 3 do
              ignore
                (Node_core.handle core
                   (put_txn_req ~client:1 ~seq:i (Printf.sprintf "k%d" i) "v"))
            done;
            let r3 = Node_core.handle core (put_txn_req ~client:1 ~seq:3 "k3" "v") in
            let hits = Node_core.dup_hits core in
            let r1 = Node_core.handle core (put_txn_req ~client:1 ~seq:1 "k1" "v") in
            r3 = P.Done && hits = 1 && r1 = P.Done
            && Node_core.dup_hits core = 1
            && Node_core.applied core = 4));
    Vc.prop ~id:"rs/node/dedup/capacity-exact" ~category:cat_node (fun () ->
        with_mem_node ~dup_capacity:2 (fun core _ ->
            (* Regression: the table must hold exactly [dup_capacity]
               entries per client.  An off-by-one that keeps capacity−1
               evicts seq 1 as soon as seq 2 arrives, and its retry
               re-applies. *)
            ignore (Node_core.handle core (put_txn_req ~client:1 ~seq:1 "k1" "a"));
            ignore (Node_core.handle core (put_txn_req ~client:1 ~seq:2 "k2" "b"));
            let r = Node_core.handle core (put_txn_req ~client:1 ~seq:1 "k1" "a") in
            r = P.Done && Node_core.applied core = 2
            && Node_core.dup_hits core = 1));
    Vc.prop ~id:"rs/node/dedup/no-cached-errors" ~category:cat_node (fun () ->
        let faults = FP.script [ FP.Drop ] in
        with_mem_node ~write_faults:faults (fun core _ ->
            (* Regression: a failed mutation was never applied, so its
               outcome must not enter the duplicate table — a cached
               [Err (Io _)] would answer every retry with the same error
               forever.  The retry re-evaluates and sees the node's
               current (degraded) refusal instead. *)
            let first = Node_core.handle core (put_txn_req ~client:1 ~seq:1 "k" "v") in
            let retry = Node_core.handle core (put_txn_req ~client:1 ~seq:1 "k" "v") in
            (match first with P.Err (P.Io _) -> true | _ -> false)
            && retry = P.Err P.Read_only
            && Node_core.dup_hits core = 0
            && Node_core.applied core = 0));
    Vc.prop ~id:"rs/node/validate" ~category:cat_node (fun () ->
        with_mem_node (fun core _ ->
            let put ?(crc_delta = 0l) key value =
              Node_core.handle core
                (P.Put
                   {
                     key;
                     value;
                     crc = Int32.add (P.crc32 value) crc_delta;
                     txn = None;
                   })
            in
            put "" "v" = P.Err P.Bad_key
            && put "UPPER" "v" = P.Err P.Bad_key
            && put "has space" "v" = P.Err P.Bad_key
            && put (String.make 25 'a') "v" = P.Err P.Bad_key
            && put "big" (String.make (P.max_value_size + 1) 'x')
               = P.Err P.Too_large
            && put ~crc_delta:1l "k" "v" = P.Err P.Bad_crc
            && put "k" "v" = P.Done
            && Node_core.applied core = 1));
    Vc.prop ~id:"rs/node/degraded/entry" ~category:cat_node (fun () ->
        let faults = FP.script [ FP.Pass; FP.Drop ] in
        with_mem_node ~write_faults:faults (fun core _ ->
            let ok = Node_core.handle core (put_txn_req ~client:1 ~seq:1 "k1" "a") in
            let failed = Node_core.handle core (put_txn_req ~client:1 ~seq:2 "k2" "b") in
            let refused = Node_core.handle core (put_txn_req ~client:1 ~seq:3 "k3" "c") in
            let pong = Node_core.handle core P.Ping in
            ok = P.Done
            && (match failed with P.Err (P.Io _) -> true | _ -> false)
            && refused = P.Err P.Read_only
            && pong = P.Pong { health = P.Degraded; epoch = 0 }
            && Node_core.degraded core));
    Vc.prop ~id:"rs/node/degraded/serves-reads" ~category:cat_node (fun () ->
        let faults = FP.script [ FP.Pass; FP.Drop ] in
        with_mem_node ~write_faults:faults (fun core _ ->
            ignore (Node_core.handle core (put_txn_req ~client:1 ~seq:1 "k1" "a"));
            ignore (Node_core.handle core (put_txn_req ~client:1 ~seq:2 "k2" "b"));
            Node_core.degraded core
            && Node_core.handle core (P.Get "k1")
               = P.Value { value = "a"; crc = P.crc32 "a" }
            && Node_core.handle core P.List = P.Listing [ "k1" ]));
    Vc.prop ~id:"rs/node/degraded/monotone" ~category:cat_node (fun () ->
        let faults = FP.script [ FP.Pass; FP.Drop ] in
        with_mem_node ~write_faults:faults (fun core store ->
            ignore (Node_core.handle core (put_txn_req ~client:1 ~seq:1 "k1" "a"));
            ignore (Node_core.handle core (put_txn_req ~client:1 ~seq:2 "k2" "b"));
            let snapshot = Node_core.mem_contents store in
            (* Every refused mutation leaves the store untouched. *)
            ignore (Node_core.handle core (put_txn_req ~client:1 ~seq:3 "k1" "z"));
            ignore (Node_core.handle core (P.Delete { key = "k1"; txn = None }));
            Node_core.degraded core
            && Node_core.mem_contents store = snapshot));
    Vc.prop ~id:"rs/node/degraded/dedup-survives" ~category:cat_node (fun () ->
        let faults = FP.script [ FP.Pass; FP.Drop ] in
        with_mem_node ~write_faults:faults (fun core _ ->
            (* A mutation acked before degradation, retried after it, is
               still answered from the table — not refused. *)
            let r1 = Node_core.handle core (put_txn_req ~client:1 ~seq:1 "k1" "a") in
            ignore (Node_core.handle core (put_txn_req ~client:1 ~seq:2 "k2" "b"));
            let retry = Node_core.handle core (put_txn_req ~client:1 ~seq:1 "k1" "a") in
            r1 = P.Done && Node_core.degraded core && retry = P.Done
            && Node_core.dup_hits core = 1));
    Vc.prop ~id:"rs/node/degraded/no-lost-ack" ~category:cat_node (fun () ->
        let faults = FP.script [ FP.Pass; FP.Pass; FP.Drop ] in
        with_mem_node ~write_faults:faults (fun core store ->
            let acked = ref [] in
            for i = 1 to 5 do
              match
                Node_core.handle core
                  (put_txn_req ~client:1 ~seq:i (Printf.sprintf "k%d" i)
                     (string_of_int i))
              with
              | P.Done -> acked := Printf.sprintf "k%d" i :: !acked
              | _ -> ()
            done;
            let contents = Node_core.mem_contents store in
            (* Every acknowledged write is present; the failed one was
               never acknowledged. *)
            List.for_all (fun k -> List.mem_assoc k contents) !acked
            && List.length contents = List.length !acked));
    Vc.prop ~id:"rs/node/integrity" ~category:cat_node (fun () ->
        let store = Node_core.mem_store () in
        let core = Node_core.create store in
        ignore (Node_core.handle core (put_txn_req ~client:1 ~seq:1 "k" "value"));
        (* Rot the stored bytes behind the node's back. *)
        (match store.Node_core.save "k" { Node_core.value = "royue"; crc = P.crc32 "value" } with
        | Ok () -> ()
        | Error _ -> ());
        Node_core.handle core (P.Get "k") = P.Err P.Integrity);
    Vc.prop ~id:"rs/node/fs-store" ~category:cat_node (fun () ->
        (* The same handling over a real mounted filesystem. *)
        let fs =
          Bi_fs.Fs.mkfs
            (Bi_fs.Block_dev.of_disk (Bi_hw.Device.Disk.create ~sectors:2048 ()))
        in
        let core = Node_core.create (Node_core.fs_store fs) in
        Node_core.handle core (put_txn_req ~client:1 ~seq:1 "k" "hello")
        = P.Done
        && Node_core.handle core (P.Get "k")
           = P.Value { value = "hello"; crc = P.crc32 "hello" }
        && Node_core.handle core (P.Delete { key = "k"; txn = None }) = P.Done
        && Node_core.handle core (P.Get "k") = P.Missing);
  ]

let backoff_vcs =
  let cfg seed = { (patient_config seed) with backoff_base = 3; backoff_cap = 40; jitter_pm = 2 } in
  [
    Vc.prop ~id:"rs/backoff/deterministic" ~category:cat_backoff
      (Vc.forall_range ~lo:1 ~hi:12 (fun a ->
           RC.backoff (cfg 9) ~attempt:a = RC.backoff (cfg 9) ~attempt:a));
    Vc.prop ~id:"rs/backoff/seed-perturbs-jitter-only" ~category:cat_backoff
      (Vc.forall_pairs [ 1; 2; 77 ] [ 1; 2; 3; 4; 5; 6 ] (fun seed a ->
           let base = { (cfg 0) with jitter_pm = 0 } in
           (* Without jitter the schedule is seed-independent... *)
           RC.backoff { base with seed } ~attempt:a = RC.backoff base ~attempt:a
           (* ...and with it, a seed moves each step by at most 2·pm. *)
           && abs (RC.backoff (cfg seed) ~attempt:a - RC.backoff (cfg 0) ~attempt:a)
              <= 2 * (cfg 0).RC.jitter_pm));
    Vc.prop ~id:"rs/backoff/capped-and-monotone" ~category:cat_backoff
      (Vc.forall_range ~lo:1 ~hi:20 (fun a ->
           let c = { (cfg 4) with jitter_pm = 0 } in
           let d = RC.backoff c ~attempt:a in
           d >= 0
           && d <= c.RC.backoff_cap
           && RC.backoff c ~attempt:(a + 1) >= d));
  ]

let breaker_vcs =
  [
    Vc.prop ~id:"rs/breaker/opens-after-threshold" ~category:cat_breaker
      (fun () ->
        let clock, t = manual_clock () in
        let calls = ref 0 in
        let ep =
          { RC.name = "down"; rpc = (fun _ -> incr calls; Error "down") }
        in
        let c = RC.create ~config:(breaker_config ~cooldown:50) ~client:1 clock ep in
        for _ = 1 to 3 do
          ignore (RC.put c ~key:"k" ~value:"v");
          t := !t + 1
        done;
        let opened = match RC.breaker_state c with RC.Open_until _ -> true | _ -> false in
        let before = !calls in
        (* Open: fast-fail without touching the endpoint. *)
        let r = RC.put c ~key:"k" ~value:"v" in
        opened && r = Error RC.Breaker_open && !calls = before);
    Vc.prop ~id:"rs/breaker/half-open-single-probe" ~category:cat_breaker
      (fun () ->
        let clock, t = manual_clock () in
        let c = ref None in
        let inner_result = ref None in
        let ep =
          {
            RC.name = "reentrant";
            rpc =
              (fun _ ->
                (match (!c, !inner_result) with
                | Some client, None ->
                    (* A second call arriving while the probe is in
                       flight must be rejected, not admitted. *)
                    if RC.breaker_state client = RC.Half_open then
                      inner_result := Some (RC.put client ~key:"k" ~value:"v")
                | _ -> ());
                Ok P.Done);
          }
        in
        let client = RC.create ~config:(breaker_config ~cooldown:10) ~client:1 clock ep in
        c := Some client;
        (* Trip the breaker: a temporarily failing phase via deadline...
           simplest is to drive failures through a wrapped endpoint, so
           instead trip it manually with a failing prefix. *)
        let failing = ref true in
        let ep2 =
          { RC.name = "gate"; rpc = (fun r -> if !failing then Error "down" else ep.RC.rpc r) }
        in
        let client = RC.create ~config:(breaker_config ~cooldown:10) ~client:1 clock ep2 in
        c := Some client;
        for _ = 1 to 3 do
          ignore (RC.put client ~key:"k" ~value:"v");
          t := !t + 1
        done;
        failing := false;
        t := !t + 20;
        (* The probe: admitted, succeeds, recloses; the reentrant call it
           triggered saw [Breaker_open]. *)
        let probe = RC.put client ~key:"k" ~value:"v" in
        probe = Ok ()
        && !inner_result = Some (Error RC.Breaker_open)
        && RC.breaker_state client = RC.Closed);
    Vc.prop ~id:"rs/breaker/probe-failure-reopens" ~category:cat_breaker
      (fun () ->
        let clock, t = manual_clock () in
        let ep = flaky_endpoint (fun () -> true) in
        let c = RC.create ~config:(breaker_config ~cooldown:10) ~client:1 clock ep in
        for _ = 1 to 3 do
          ignore (RC.put c ~key:"k" ~value:"v");
          t := !t + 1
        done;
        t := !t + 20;
        ignore (RC.put c ~key:"k" ~value:"v");
        (* Failed probe: open again, with a fresh cooldown. *)
        match RC.breaker_state c with
        | RC.Open_until u -> u = !t + 10
        | _ -> false);
    Vc.prop ~id:"rs/breaker/recovers-after-outage" ~category:cat_breaker
      (fun () -> outage_recovery ~cooldown:20 >= 15);
    Vc.prop ~id:"rs/breaker/conformance" ~category:cat_breaker
      (Vc.forall_list [ 1; 2; 3; 4; 5 ] breaker_conformance);
  ]

let client_vcs =
  [
    Vc.prop ~id:"rs/client/retry/req-drop" ~category:cat_client (fun () ->
        let r, applied, _, retries = scripted_retry ~req:[ FP.Drop ] ~resp:[] ~strip_txn:false in
        r = Ok () && applied = 1 && retries >= 1);
    Vc.prop ~id:"rs/client/retry/req-duplicate" ~category:cat_client (fun () ->
        let r, applied, dup_hits, _ = scripted_retry ~req:[ FP.Duplicate ] ~resp:[] ~strip_txn:false in
        (* The wire duplicated the request; the table absorbed the copy. *)
        r = Ok () && applied = 1 && dup_hits = 1);
    Vc.prop ~id:"rs/client/retry/resp-drop" ~category:cat_client (fun () ->
        let r, applied, dup_hits, retries = scripted_retry ~req:[] ~resp:[ FP.Drop ] ~strip_txn:false in
        (* Applied, ack lost: the retry is answered from the table. *)
        r = Ok () && applied = 1 && dup_hits >= 1 && retries >= 1);
    Vc.prop ~id:"rs/client/retry/req-corrupt" ~category:cat_client (fun () ->
        let r, applied, _, retries =
          scripted_retry ~req:[ FP.Corrupt { pos = 10; bits = 0x41 } ] ~resp:[] ~strip_txn:false
        in
        (* Frame CRC catches the corruption; the frame is dropped and the
           retry lands clean. *)
        r = Ok () && applied = 1 && retries >= 1);
    Vc.prop ~id:"rs/client/deadline-sound" ~category:cat_client
      (Vc.forall_list [ 1; 2; 3; 4; 5; 6 ] deadline_sound);
    Vc.prop ~id:"rs/client/deadline/no-post-deadline-sleep" ~category:cat_client
      (fun () ->
        (* Regression: with an instantly-failing endpoint and a backoff
           step (100) far larger than the whole budget (10), an unclamped
           sleep would park the call at t=100; the clamp caps the total
           elapsed time at exactly the deadline. *)
        let clock, t = manual_clock () in
        let ep = { RC.name = "down"; rpc = (fun _ -> Error "down") } in
        let cfg =
          {
            RC.max_attempts = 5;
            backoff_base = 100;
            backoff_cap = 100;
            jitter_pm = 0;
            breaker_threshold = 10_000;
            breaker_cooldown = 50;
            deadline = 10;
            seed = 1;
          }
        in
        let c = RC.create ~config:cfg ~client:1 clock ep in
        let r = RC.put c ~key:"k" ~value:"v" in
        r = Error RC.Deadline && !t <= cfg.RC.deadline);
  ]

let exactly_once_vc ~family ~rates =
  Vc.prop
    ~id:(Printf.sprintf "rs/client/exactly-once/%s" family)
    ~category:cat_client
    (Vc.forall_list [ 1; 2; 3 ] (fun seed ->
         let acks, failures, applied, stored =
           exactly_once ~tag:("eo-" ^ family) ~seed ~rates
         in
         (* Bounded budgets: everything completes; distinct keys: the
            store size counts distinct applies. *)
         acks = 8 && failures = 0 && applied = stored && stored = 8))

let lin_vc ~family ~rates ?(replicas = 1) ?crash () =
  Vc.make
    ~id:(Printf.sprintf "rs/lin/%s" family)
    ~category:cat_lin
    (fun () ->
      let ok =
        List.for_all
          (fun seed ->
            let rc, _, _ =
              lin_run ~tag:("lin-" ^ family) ~seed ~rates ~replicas ~procs:2
                ~ops:5 ?crash ()
            in
            rc.errors = [] && rc.calls <> [] && KV.linearizable rc)
          [ 1; 2 ]
      in
      Vc.outcome_of_bool ok)

let lin_vcs =
  [
    lin_vc ~family:"pass" ~rates:rates_pass ();
    lin_vc ~family:"drop" ~rates:rates_drop ();
    lin_vc ~family:"duplicate" ~rates:rates_dup ();
    lin_vc ~family:"reorder" ~rates:rates_reorder ();
    lin_vc ~family:"corrupt" ~rates:rates_corrupt ();
    lin_vc ~family:"stall" ~rates:rates_stall ();
    lin_vc ~family:"mixed" ~rates:rates_mixed ();
    lin_vc ~family:"replicated-mixed" ~rates:rates_mixed ~replicas:2 ();
  ]

let replica_vcs =
  [
    Vc.prop ~id:"rs/replica/fan-out" ~category:cat_replica (fun () ->
        let s, w, set = quiet_pair ~config:(patient_config 3) in
        let ok = ref false in
        ignore
          (run_world s w
             [ (fun () -> ok := Replica_set.put set ~key:"k" ~value:"v" = Ok ()) ]);
        let on n = Node_core.mem_contents n.World.store in
        !ok
        && on w.World.nodes.(0) = [ ("k", "v") ]
        && on w.World.nodes.(1) = [ ("k", "v") ]);
    Vc.prop ~id:"rs/replica/crash-fences-and-fails-over" ~category:cat_replica
      (fun () ->
        let s, w, set = quiet_pair ~config:(failover_config 3) in
        let ok = ref false in
        ignore
          (run_world s w
             [
               (fun () ->
                 let w1 = Replica_set.put set ~key:"k" ~value:"v1" in
                 World.crash w 0;
                 (* The write fans out, n0 misses it → acked by n1 alone,
                    n0 fenced; the read must come from n1 (failover) and
                    see v2. *)
                 let w2 = Replica_set.put set ~key:"k" ~value:"v2" in
                 let r = Replica_set.get set ~key:"k" in
                 ok :=
                   w1 = Ok () && w2 = Ok ()
                   && r = Ok (Some "v2")
                   && Replica_set.synced_names set = [ "n1" ]
                   && Replica_set.failovers set >= 1);
             ]);
        !ok);
    Vc.prop ~id:"rs/replica/epoch-fence-and-resync" ~category:cat_replica
      (fun () ->
        let s, w, set = quiet_pair ~config:(failover_config 3) in
        let ok = ref false in
        ignore
          (run_world s w
             [
               (fun () ->
                 ignore (Replica_set.check_health set);
                 ignore (Replica_set.put set ~key:"k" ~value:"v1");
                 (* Instant crash+restart: no write is missed, but the
                    epoch moved — health checking alone must fence. *)
                 World.crash w 0;
                 World.restart w 0;
                 ignore (Replica_set.check_health set);
                 let fenced = Replica_set.synced_names set = [ "n1" ] in
                 let repaired = Replica_set.resync set in
                 let healed =
                   List.sort compare (Replica_set.synced_names set)
                   = [ "n0"; "n1" ]
                 in
                 let r = Replica_set.get set ~key:"k" in
                 ok :=
                   fenced && repaired = Ok 1 && healed && r = Ok (Some "v1"));
             ]);
        !ok);
    lin_vc ~family:"crash-failover" ~rates:rates_pass ~replicas:2
      ~crash:(`Crash 25) ();
    lin_vc ~family:"crash-restart" ~rates:rates_pass ~replicas:2
      ~crash:(`Crash_restart (25, 30)) ();
  ]

let mutation_vcs =
  [
    (* Self-check 1: strip the txn ids and the exactly-once argument must
       collapse — the response-drop retry applies twice. *)
    Vc.make ~id:"rs/mutation/retry-without-txn-caught" ~category:cat_mutation
      (fun () ->
        let _, applied_ok, _, _ = scripted_retry ~req:[] ~resp:[ FP.Drop ] ~strip_txn:false in
        let r, applied_mut, _, _ = scripted_retry ~req:[] ~resp:[ FP.Drop ] ~strip_txn:true in
        if applied_ok <> 1 then Vc.Falsified "correct client not exactly-once"
        else if r = Ok () && applied_mut > 1 then Vc.Proved
        else Vc.Falsified "txn-less retry not caught by the apply counter");
    (* Self-check 2: a breaker that never half-opens turns a transient
       outage into permanent unavailability. *)
    Vc.make ~id:"rs/mutation/never-half-open-caught" ~category:cat_mutation
      (fun () ->
        let healthy = outage_recovery ~cooldown:20 in
        let mutant = outage_recovery ~cooldown:1_000_000_000 in
        if healthy < 15 then Vc.Falsified "correct breaker failed to recover"
        else if mutant = 0 then Vc.Proved
        else
          Vc.Falsified
            (Printf.sprintf "never-half-open breaker still served %d calls"
               mutant));
    (* Self-check 3: failover to an unfenced stale backup serves a stale
       read, and the linearizability checker sees it. *)
    Vc.make ~id:"rs/mutation/stale-failover-read-caught" ~category:cat_mutation
      (fun () ->
        let naive = naive_failover_history () in
        let fenced, failovers = fenced_failover_history () in
        if fenced.errors <> [] || not (KV.linearizable fenced) then
          Vc.Falsified "correct replica set not linearizable"
        else if failovers < 1 then
          Vc.Falsified "correct replica set never failed over"
        else if naive.errors <> [] && naive.calls = [] then
          Vc.Falsified "naive client produced no history"
        else if KV.linearizable naive then
          Vc.Falsified "stale failover read not caught by the checker"
        else Vc.Proved);
    (* The positive control, with its plan shrunk to one decision and
       replayed. *)
    Vc.make ~id:"rs/mutation/shrunk-replay" ~category:cat_mutation (fun () ->
        let c = positive_control () in
        if not c.plain_failed then
          Vc.Falsified "plain client survived the noisy plan"
        else if not c.resilient_ok then
          Vc.Falsified "resilient client lost a request"
        else if List.length c.shrunk <> 1 then
          Vc.Falsified
            (Format.asprintf "shrunk plan has %d decisions: %a"
               (List.length c.shrunk)
               (Format.pp_print_list FP.pp_decision)
               c.shrunk)
        else if not c.replay_fails then
          Vc.Falsified "shrunk plan no longer fails on replay"
        else Vc.Proved);
    (* Replay determinism of a whole simulated run — including the
       duplicate tables: [dump_dups] is sorted by client id, so two
       identical runs must dump byte-identical tables on every node. *)
    Vc.prop ~id:"rs/mutation/sim-deterministic" ~category:cat_mutation
      (fun () ->
        let go () =
          let rc, w, set =
            lin_run ~tag:"determinism" ~seed:5 ~rates:rates_mixed ~replicas:2
              ~procs:2 ~ops:4 ()
          in
          ( List.rev_map
              (fun c -> KV.Lin.(c.proc, c.op, c.ret, c.inv, c.res))
              rc.calls,
           (Replica_set.stats set).RC.attempts,
           Array.to_list
             (Array.map
                (fun n -> Node_core.dump_dups n.World.core)
                w.World.nodes))
        in
        go () = go ());
  ]

(* PR 10 tightening: restarts recover the duplicate table from the
   node's journal, so crash-straddling retries are answered exactly-once
   — no ambiguity carve-out, even for deletes, whose pre-crash outcome
   the store alone cannot recall. *)
let crash_vcs =
  [
    (* A retry that straddles a crash+restart: the delete applies and
       its ack is dropped; the node crashes and respawns before the
       retry lands.  The recovered table must answer [true] (the
       pre-crash decision) without re-applying — the new incarnation
       applies nothing. *)
    Vc.prop ~id:"rs/crash/journaled-restart-exactly-once" ~category:cat_crash
      (fun () ->
        let s, w, node =
          scripted_world ~req:[] ~resp:[ FP.Pass; FP.Drop ]
        in
        let ep = World.endpoint w 0 ~attempt_timeout in
        let client =
          RC.create ~config:(patient_config 23) ~client:1 (World.clock w) ep
        in
        let put_r = ref (Error RC.Breaker_open) in
        let del_r = ref (Error RC.Breaker_open) in
        let worker () =
          put_r := RC.put client ~key:"k" ~value:"v";
          del_r := RC.delete client ~key:"k"
        in
        let controller () =
          (* After the delete has applied (ack dropped), before the
             retry's backoff expires. *)
          Vtime.sleep 6;
          World.crash w 0;
          Vtime.sleep 3;
          World.restart w 0
        in
        ignore (run_world s w [ worker; controller ]);
        !put_r = Ok ()
        && !del_r = Ok true
        && Node_core.mem_contents node.World.store = []
        && Node_core.applied node.World.core = 0
        && Node_core.dup_hits node.World.core >= 1
        && node.World.last_recovery.Node_core.r_dup_entries >= 2);
    (* Linearizability stays exact when drop-induced retries straddle a
       crash+restart of a replica — the family the suite previously only
       ran fault-free. *)
    Vc.make ~id:"rs/crash/journaled-restart-lin-exact" ~category:cat_crash
      (fun () ->
        let ok =
          List.for_all
            (fun seed ->
              let rc, _, _ =
                lin_run ~tag:"lin-journaled-crash-restart" ~seed
                  ~rates:rates_drop ~replicas:2 ~procs:2 ~ops:5
                  ~crash:(`Crash_restart (25, 30)) ()
              in
              rc.errors = [] && rc.calls <> [] && KV.linearizable rc)
            [ 1; 2 ]
        in
        Vc.outcome_of_bool ok);
  ]

let exactly_once_vcs =
  [
    exactly_once_vc ~family:"pass" ~rates:rates_pass;
    exactly_once_vc ~family:"drop" ~rates:rates_drop;
    exactly_once_vc ~family:"duplicate" ~rates:rates_dup;
    exactly_once_vc ~family:"reorder" ~rates:rates_reorder;
    exactly_once_vc ~family:"corrupt" ~rates:rates_corrupt;
    exactly_once_vc ~family:"stall" ~rates:rates_stall;
    exactly_once_vc ~family:"mixed" ~rates:rates_mixed;
  ]

let vcs () =
  protocol_vcs @ node_vcs @ backoff_vcs @ breaker_vcs @ client_vcs
  @ exactly_once_vcs @ lin_vcs @ replica_vcs @ mutation_vcs @ crash_vcs
