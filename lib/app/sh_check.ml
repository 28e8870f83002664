module P = Protocol
module RC = Resilient_client
module SR = Shard_router
module SM = Shard_map
module FP = Bi_fault.Fault_plan
module Vc = Bi_core.Vc
module Vtime = Bi_core.Vtime
module World = Sim_world
module KV = Store_spec

(* Client fibers run on the {!Vtime} scheduler against sharded nodes of
   the {!Sim_world}.  Histories are checked against the one key-value
   specification, {!Store_spec}. *)

let record rc s = KV.record rc ~now:(fun () -> Vtime.now s)

(* ================================================================== *)
(* Cluster assembly                                                     *)

let attempt_timeout = 10

let patient_config = World.patient_config

let rates_pass = FP.no_faults
let rates_drop = { FP.no_faults with drop = 150 }
let rates_dup = { FP.no_faults with duplicate = 150 }

let rates_mixed =
  { FP.drop = 50; duplicate = 40; reorder = 40; corrupt = 30; stall = 30;
    max_stall = 3 }

(* The [sh] suite's two migration mutants, built around the unmodified
   router by wrapping a node's admin: a target that drops the carried
   duplicate table, and a target that flips the map to itself as soon as
   it adopts the shard, before the copy.  Only a migration's target is
   asked to adopt or import, so wrapping every node's admin changes
   exactly the target.  The flip reaches the cluster through a ref set
   once [SR.cluster] has built it. *)
type mutant = Drop_dups | Flip_on_adopt

let mutate mutant (cluster : SR.cluster option ref) i (a : SR.admin) =
  match mutant with
  | None -> a
  | Some Drop_dups -> { a with SR.import_dups = (fun ~shard:_ _ -> ()) }
  | Some Flip_on_adopt ->
      {
        a with
        SR.adopt =
          (fun ~shard ->
            let r = a.SR.adopt ~shard in
            if r = Ok () then SR.flip (Option.get !cluster) ~shard ~to_:i;
            r);
      }

type env = {
  sched : Vtime.t;
  world : World.t;
  cluster : SR.cluster;
}

let make_cluster ?(nshards = 4) ?(nnodes = 2) ?mutant ~tag ~seed ~rates ~limit
    () =
  let s = Vtime.make () in
  let nodes =
    List.init nnodes (fun i ->
        World.node
          ~name:(Printf.sprintf "n%d" i)
          ~req_plan:
            (FP.seeded
               ~name:(Printf.sprintf "sh/%s/n%d/req" tag i)
               ~seed:(seed + i) ~rates ~limit ())
          ~resp_plan:
            (FP.seeded
               ~name:(Printf.sprintf "sh/%s/n%d/resp" tag i)
               ~seed:(seed + i) ~rates ~limit ())
          ())
  in
  let w = World.create s nodes in
  let map = SM.create ~nshards ~nodes:nnodes in
  Array.iteri
    (fun i n ->
      Node_core.enable_sharding n.World.core ~nshards ~version:(SM.version map)
        ~owned:(SM.shards_of_node map ~node:i))
    w.World.nodes;
  let cluster = ref None in
  let admins =
    Array.init nnodes (fun i -> mutate mutant cluster i (World.admin w i))
  in
  let endpoints =
    Array.init nnodes (fun i -> World.endpoint w i ~attempt_timeout)
  in
  let c = SR.cluster ~map ~admins ~endpoints in
  cluster := Some c;
  { sched = s; world = w; cluster = c }

let quiet_cluster ?nshards ?mutant ~tag () =
  make_cluster ?nshards ?mutant ~tag ~seed:1 ~rates:rates_pass ~limit:0 ()

let run_world env fibers =
  List.iter (Vtime.spawn env.sched) fibers;
  Vtime.run ~tick:(fun () -> World.tick env.world) env.sched

let router ?config ?route_retries ~client env =
  SR.connect ?config ?route_retries ~client env.cluster
    (World.clock env.world)

let core_of env i = env.world.World.nodes.(i).World.core

let total_applied env =
  Array.fold_left
    (fun acc n -> acc + Node_core.applied n.World.core)
    0 env.world.World.nodes

(* The first [n] keys of the form m<i> that hash onto [shard]. *)
let keys_in ~nshards shard n =
  let rec go i acc found =
    if found = n then List.rev acc
    else
      let k = Printf.sprintf "m%d" i in
      if SM.shard_of ~nshards k = shard then go (i + 1) (k :: acc) (found + 1)
      else go (i + 1) acc found
  in
  go 0 [] 0

let key_in ~nshards shard = List.hd (keys_in ~nshards shard 1)

let value_resp v = P.Value { value = v; crc = P.crc32 v }

let put_req ?txn key value = P.Put { key; value; crc = P.crc32 value; txn }

let direct_put core key value =
  Node_core.handle core (put_req key value) = P.Done

(* ================================================================== *)
(* Migration scenarios                                                  *)

(* Live migration under a fault family, with optional crash / instant
   crash-restart of a node not involved in the migration.  [nshards]
   ballast keys (one per shard) are written before the run and must all
   be readable, with their values, from the final owners — the
   no-key-loss obligation.  Returns the accounting needed by the lin and
   exactly-once VCs. *)
type mig_run = {
  rc : KV.recorder;
  mig_ok : bool;
  ballast_ok : bool;
  restart_ok : bool;  (** A restarted node recovered the map's ownership. *)
  acked_muts : int;  (** Successful workload mutations. *)
  applied : int;  (** Sum over nodes. *)
  keys_moved : int;
  nballast : int;
  rounds : int;
  dups : (P.txn * (int * P.resp)) list list;
      (** Per-node duplicate-table dumps, sorted by client id — the
          world-determinism VC compares them across identical runs. *)
}

let lin_migration ~tag ~seed ~rates ?(crash = `No) () =
  let nshards = 4 in
  let nnodes = match crash with `No -> 2 | _ -> 3 in
  let env = make_cluster ~nshards ~nnodes ~tag ~seed ~rates ~limit:6 () in
  let s = env.sched and w = env.world and c = env.cluster in
  let rc = KV.recorder () in
  (* Ballast: one key per shard, written straight into the owners'
     cores before the network exists. *)
  let ballast =
    List.init nshards (fun sh ->
        (key_in ~nshards sh, Printf.sprintf "ball%d" sh))
  in
  List.iter
    (fun (k, v) ->
      let node = SM.node_of_key (SR.map c) k in
      if not (direct_put (core_of env node) k v) then failwith "ballast")
    ballast;
  let keys = [| "a"; "b"; "c"; "d" |] in
  let fiber proc =
    let r =
      router
        ~config:{ (patient_config (seed + proc)) with max_attempts = 14 }
        ~client:proc env
    in
    fun () ->
      for i = 1 to 6 do
        let key = keys.((i + proc) mod 4) in
        let value = Printf.sprintf "v%d-%d" proc i in
        let op = KV.mixed_op ~proc ~i ~key ~value () in
        record rc s proc op (fun () ->
            KV.perform ~put:(SR.put r) ~get:(SR.get r) ~delete:(SR.delete r)
              ~pp_error:RC.pp_error op);
        Vtime.sleep (1 + ((proc + i) mod 3))
      done
  in
  let mig_router = router ~config:(patient_config (seed + 77)) ~client:99 env in
  let mig_result = ref (Error "not run") in
  let shard = SM.shard_of_key (SR.map c) "a" in
  let from_ = SM.node_of (SR.map c) ~shard in
  let to_ = (from_ + 1) mod nnodes in
  let mig_fiber () =
    Vtime.sleep 8;
    mig_result := SR.migrate mig_router ~shard ~to_
  in
  let fibers = [ fiber 1; fiber 2; mig_fiber ] in
  let restart_ok = ref true in
  let fibers =
    match crash with
    | `No -> fibers
    | `Crash_restart (at, down) ->
        (* The victim is the node the migration does not touch; its
           journal alone must give it the map's ownership back. *)
        let victim = 3 - from_ - to_ in
        fibers
        @ [
            (fun () ->
              Vtime.sleep at;
              World.crash w victim;
              Vtime.sleep down;
              World.restart w victim;
              let map = SR.map c in
              let owned = SM.shards_of_node map ~node:victim in
              restart_ok :=
                Node_core.shard_state (core_of env victim)
                = Some (SM.version map, owned, []));
          ]
  in
  let rounds = run_world env fibers in
  let ballast_ok =
    List.for_all
      (fun (k, v) ->
        let node = SM.node_of_key (SR.map c) k in
        Node_core.handle (core_of env node) (P.Get k) = value_resp v)
      ballast
  in
  let acked_muts =
    (* Effective mutations only: a delete acknowledged [false] found
       nothing to remove and was never applied. *)
    List.length
      (List.filter
         (fun call ->
           match (call.KV.Lin.op, call.KV.Lin.ret) with
           | KV.Put _, _ -> true
           | KV.Delete _, KV.Deleted b -> b
           | _ -> false)
         rc.calls)
  in
  {
    rc;
    mig_ok = (!mig_result = Ok ());
    ballast_ok;
    restart_ok = !restart_ok;
    acked_muts;
    applied = total_applied env;
    keys_moved = (SR.migration_stats c).SR.keys_moved;
    nballast = nshards;
    rounds;
    dups =
      Array.to_list
        (Array.map (fun n -> Node_core.dump_dups n.World.core) w.World.nodes);
  }

(* A reader polling the last-copied key of a migrating shard, against
   the correct protocol or the [Flip_on_adopt] mutant.  With the early
   flip the reader routes to the target before the copy lands there and
   observes [Ok None] for an acknowledged key — the hole the
   freeze-before-flip order exists to close. *)
let copy_window_reads ?mutant () =
  let nshards = 4 in
  let env = quiet_cluster ~nshards ?mutant ~tag:"copywin" () in
  let c = env.cluster in
  let shard = 0 in
  let keys = keys_in ~nshards shard 3 in
  let last_key = List.nth keys 2 in
  let to_ = (SM.node_of (SR.map c) ~shard + 1) mod 2 in
  let setup = router ~config:(patient_config 3) ~client:1 env in
  let reader = router ~config:(patient_config 4) ~client:2 env in
  let mig = router ~config:(patient_config 5) ~client:99 env in
  let mig_result = ref (Error "not run") in
  let nones = ref 0 in
  let errors = ref 0 in
  let somes = ref 0 in
  let fibers =
    [
      (fun () ->
        List.iter
          (fun k ->
            match SR.put setup ~key:k ~value:("v" ^ k) with
            | Ok () -> ()
            | Error _ -> incr errors)
          keys);
      (fun () ->
        Vtime.sleep 25;
        for _ = 1 to 40 do
          (match SR.get reader ~key:last_key with
          | Ok (Some _) -> incr somes
          | Ok None -> incr nones
          | Error _ -> incr errors);
          Vtime.sleep 1
        done);
      (fun () ->
        Vtime.sleep 30;
        mig_result := SR.migrate mig ~shard ~to_);
    ]
  in
  ignore (run_world env fibers);
  (!mig_result = Ok (), !nones, !somes, !errors)

(* Acked on the old owner, retried on the new one: the exactly-once
   argument across a handoff.  [Drop_dups] is the mutant that drops the
   duplicate table on the floor. *)
let retry_across_handoff ?mutant () =
  let nshards = 4 in
  let env = quiet_cluster ~nshards ?mutant ~tag:"handoff" () in
  let c = env.cluster in
  let shard = 0 in
  let key = key_in ~nshards shard in
  let from_ = SM.node_of (SR.map c) ~shard in
  let to_ = (from_ + 1) mod 2 in
  let clock = World.clock env.world in
  let ep_from = World.endpoint env.world from_ ~attempt_timeout in
  let ep_to = World.endpoint env.world to_ ~attempt_timeout in
  let c_from = RC.create ~config:(patient_config 6) ~client:5 clock ep_from in
  let c_to = RC.create ~config:(patient_config 7) ~client:5 clock ep_to in
  let mig = router ~config:(patient_config 8) ~client:99 env in
  let txn = { P.client = 5; seq = 1 } in
  let first = ref (Error RC.Breaker_open) in
  let retry = ref (Error RC.Breaker_open) in
  let mig_result = ref (Error "not run") in
  ignore
    (run_world env
       [
         (fun () ->
           first := RC.put_txn c_from ~txn ~key ~value:"v";
           mig_result := SR.migrate mig ~shard ~to_;
           (* The client reconnects to the new owner and retries the
              same transaction. *)
           retry := RC.put_txn c_to ~txn ~key ~value:"v");
       ]);
  ( !first = Ok () && !mig_result = Ok () && !retry = Ok (),
    Node_core.applied (core_of env to_),
    Node_core.dup_hits (core_of env to_),
    (SR.migration_stats c).SR.keys_moved )

(* ================================================================== *)
(* The VCs                                                              *)

let cat_map = "sh/map"
let cat_protocol = "sh/protocol"
let cat_node = "sh/node"
let cat_router = "sh/router"
let cat_migrate = "sh/migrate"
let cat_lin = "sh/lin"
let cat_mutation = "sh/mutation"

let sample_keys =
  List.init 24 (fun i -> Printf.sprintf "k%d" i) @ [ "a"; "b"; "zz-9" ]

let map_vcs =
  [
    Vc.prop ~id:"sh/map/shard-in-range" ~category:cat_map
      (Vc.forall_list sample_keys (fun k ->
           List.for_all
             (fun nshards ->
               let s = SM.shard_of ~nshards k in
               0 <= s && s < nshards)
             [ 1; 2; 3; 4; 8 ]));
    Vc.prop ~id:"sh/map/node-of-key-consistent" ~category:cat_map
      (Vc.forall_list sample_keys (fun k ->
           let m = SM.create ~nshards:8 ~nodes:3 in
           SM.node_of_key m k = SM.node_of m ~shard:(SM.shard_of_key m k)));
    Vc.prop ~id:"sh/map/assign-moves-only-target" ~category:cat_map
      (Vc.forall_range ~lo:0 ~hi:7 (fun sh ->
           let m = SM.create ~nshards:8 ~nodes:3 in
           let m' = SM.assign m ~shard:sh ~node:2 in
           SM.node_of m' ~shard:sh = 2
           && Vc.forall_range ~lo:0 ~hi:7
                (fun other ->
                  other = sh
                  || SM.node_of m' ~shard:other = SM.node_of m ~shard:other)
                ()));
    Vc.prop ~id:"sh/map/version-monotone" ~category:cat_map (fun () ->
        let m0 = SM.create ~nshards:4 ~nodes:2 in
        let m1 = SM.assign m0 ~shard:1 ~node:0 in
        let m2 = SM.assign m1 ~shard:3 ~node:0 in
        SM.version m0 = 0 && SM.version m1 = 1 && SM.version m2 = 2);
    Vc.prop ~id:"sh/map/initial-balance" ~category:cat_map (fun () ->
        let m = SM.create ~nshards:8 ~nodes:3 in
        let counts =
          List.init 3 (fun n -> List.length (SM.shards_of_node m ~node:n))
        in
        List.fold_left ( + ) 0 counts = 8
        && List.for_all (fun c -> abs (c - (8 / 3)) <= 1) counts);
    Vc.prop ~id:"sh/map/key-spread" ~category:cat_map (fun () ->
        (* CRC-32 over 64 short keys must touch every one of 4 shards —
           a smoke test that the hash actually spreads. *)
        let hit = Array.make 4 false in
        for i = 0 to 63 do
          hit.(SM.shard_of ~nshards:4 (Printf.sprintf "k%d" i)) <- true
        done;
        Array.for_all Fun.id hit);
    Vc.prop ~id:"sh/map/shards-partition" ~category:cat_map (fun () ->
        let m = SM.assign (SM.create ~nshards:8 ~nodes:3) ~shard:5 ~node:0 in
        let all =
          List.concat_map (fun n -> SM.shards_of_node m ~node:n) [ 0; 1; 2 ]
        in
        List.sort compare all = List.init 8 Fun.id);
  ]

let roundtrip_resp r =
  match P.decode_resp (P.encode_resp r) ~off:0 with
  | Some (r', n) -> r' = r && n = Bytes.length (P.encode_resp r)
  | None -> false

let protocol_vcs =
  [
    Vc.prop ~id:"sh/protocol/wrong-shard-roundtrip" ~category:cat_protocol
      (Vc.forall_range ~lo:0 ~hi:40 (fun v ->
           roundtrip_resp (P.Err (P.Wrong_shard v))));
    Vc.prop ~id:"sh/protocol/wrong-shard-not-retryable" ~category:cat_protocol
      (Vc.forall_range ~lo:0 ~hi:10 (fun v ->
           not (P.retryable (P.Wrong_shard v))));
    Vc.prop ~id:"sh/protocol/wrong-shard-distinct" ~category:cat_protocol
      (fun () ->
        let rendered =
          Format.asprintf "%a" P.pp_err (P.Wrong_shard 3)
        in
        String.length rendered > 0
        && List.for_all
             (fun e -> P.Err e <> P.Err (P.Wrong_shard 3))
             [ P.Bad_key; P.Too_large; P.Bad_crc; P.No_crc; P.Integrity;
               P.Read_only; P.Io "x"; P.Wrong_shard 4 ]);
  ]

let sharded_core ~nshards ~owned () =
  let store = Node_core.mem_store () in
  let core = Node_core.create ~epoch:0 store in
  Node_core.enable_sharding core ~nshards ~version:0 ~owned;
  (core, store)

let node_vcs =
  [
    Vc.prop ~id:"sh/node/unsharded-owns-all" ~category:cat_node (fun () ->
        let store = Node_core.mem_store () in
        let core = Node_core.create store in
        Node_core.shard_state core = None
        && List.for_all (fun k -> direct_put core k "v") sample_keys);
    Vc.prop ~id:"sh/node/wrong-shard-quotes-version" ~category:cat_node
      (fun () ->
        let core, _ = sharded_core ~nshards:4 ~owned:[ 0 ] () in
        Node_core.set_map_version core 7;
        let k = key_in ~nshards:4 1 in
        let refused = Node_core.handle core (put_req k "v") in
        Node_core.set_map_version core 9;
        let refused' = Node_core.handle core (put_req k "v") in
        refused = P.Err (P.Wrong_shard 7)
        && refused' = P.Err (P.Wrong_shard 9)
        && Node_core.applied core = 0);
    Vc.prop ~id:"sh/node/frozen-blocks-writes-serves-reads" ~category:cat_node
      (fun () ->
        let core, _ = sharded_core ~nshards:4 ~owned:[ 0; 1 ] () in
        let k = key_in ~nshards:4 0 in
        let k' = List.nth (keys_in ~nshards:4 0 2) 1 in
        let ok = direct_put core k "v" in
        Node_core.freeze core ~shard:0;
        let refused = Node_core.handle core (put_req k' "w") in
        let read = Node_core.handle core (P.Get k) in
        let del = Node_core.handle core (P.Delete { key = k; txn = None }) in
        Node_core.unfreeze core ~shard:0;
        let after = Node_core.handle core (put_req k' "w") in
        ok
        && refused = P.Err (P.Wrong_shard 0)
        && read = value_resp "v"
        && del = P.Err (P.Wrong_shard 0)
        && after = P.Done);
    Vc.prop ~id:"sh/node/adopt-accepts" ~category:cat_node (fun () ->
        let core, _ = sharded_core ~nshards:4 ~owned:[] () in
        let k = key_in ~nshards:4 2 in
        let before = Node_core.handle core (put_req k "v") in
        let adopted = Node_core.adopt core ~shard:2 in
        before = P.Err (P.Wrong_shard 0)
        && adopted = Ok ()
        && direct_put core k "v");
    Vc.prop ~id:"sh/node/release-drops" ~category:cat_node (fun () ->
        let core, store = sharded_core ~nshards:4 ~owned:[ 0; 1; 2; 3 ] () in
        let k0 = key_in ~nshards:4 0 and k1 = key_in ~nshards:4 1 in
        let ok = direct_put core k0 "a" && direct_put core k1 "b" in
        let released = Node_core.release core ~shard:0 in
        ok && released = Ok ()
        && Node_core.mem_contents store = [ (k1, "b") ]
        && Node_core.handle core P.List = P.Listing [ k1 ]
        && Node_core.handle core (put_req k0 "a") = P.Err (P.Wrong_shard 0)
        && Node_core.handle core (P.Get k1) = value_resp "b");
    Vc.prop ~id:"sh/node/dup-export-import" ~category:cat_node (fun () ->
        let a, _ = sharded_core ~nshards:4 ~owned:[ 0; 1 ] () in
        let k = key_in ~nshards:4 0 in
        let first =
          Node_core.handle a (put_req ~txn:{ P.client = 3; seq = 1 } k "v")
        in
        (* Entries for other shards must not leak into the export. *)
        let k1 = key_in ~nshards:4 1 in
        ignore
          (Node_core.handle a (put_req ~txn:{ P.client = 3; seq = 2 } k1 "w"));
        let entries = Node_core.export_dups a ~shard:0 in
        let b, _ = sharded_core ~nshards:4 ~owned:[ 0 ] () in
        Node_core.import_dups b ~shard:0 entries;
        let retry =
          Node_core.handle b (put_req ~txn:{ P.client = 3; seq = 1 } k "v")
        in
        first = P.Done
        && Node_core.applied a = 2
        && List.length entries = 1
        && retry = P.Done
        && Node_core.applied b = 0
        && Node_core.dup_hits b = 1);
    Vc.prop ~id:"sh/node/dedup-before-shard-check" ~category:cat_node
      (fun () ->
        let core, _ = sharded_core ~nshards:4 ~owned:[ 0 ] () in
        let k = key_in ~nshards:4 0 in
        let txn = Some { P.client = 4; seq = 1 } in
        let put () =
          Node_core.handle core
            (P.Put { key = k; value = "v"; crc = P.crc32 "v"; txn })
        in
        let first = put () in
        Node_core.freeze core ~shard:0;
        (* A retry of an acked mutation answers from the table even while
           the shard is frozen... *)
        let frozen_retry = put () in
        Node_core.unfreeze core ~shard:0;
        (* ...but once the shard is released the entries moved with it,
           so the same retry is refused like any other mutation. *)
        let released = Node_core.release core ~shard:0 in
        let gone_retry = put () in
        first = P.Done && frozen_retry = P.Done
        && Node_core.dup_hits core = 1
        && released = Ok ()
        && gone_retry = P.Err (P.Wrong_shard 0)
        && Node_core.applied core = 1);
    Vc.prop ~id:"sh/node/adopt-reconciles-stale-keys" ~category:cat_node
      (fun () ->
        (* Regression: a release whose sweep hits a store error leaves
           the shard's keys behind (hidden while un-owned).  Re-adopting
           the shard must purge them before taking ownership — pre-fix,
           a key meanwhile deleted at the interim owner was served here
           again — and a failed purge must refuse the adoption. *)
        let store =
          Node_core.mem_store
            ~write_faults:(FP.script [ FP.Pass; FP.Drop; FP.Drop ]) ()
        in
        let core = Node_core.create ~epoch:0 store in
        Node_core.enable_sharding core ~nshards:4 ~version:0 ~owned:[ 0 ];
        let k = key_in ~nshards:4 0 in
        let ok = direct_put core k "v" in (* site 1: pass *)
        let rel = Node_core.release core ~shard:0 in (* site 2: fail *)
        let residue = Node_core.mem_contents store in
        let refused = Node_core.adopt core ~shard:0 in (* site 3: fail *)
        let still_refusing = Node_core.handle core (put_req k "w") in
        let adopted = Node_core.adopt core ~shard:0 in (* site 4: pass *)
        ok
        && (match rel with Error (P.Io _) -> true | _ -> false)
        && residue = [ (k, "v") ]
        && (match refused with Error (P.Io _) -> true | _ -> false)
        && still_refusing = P.Err (P.Wrong_shard 0)
        && adopted = Ok ()
        && Node_core.handle core (P.Get k) = P.Missing
        && Node_core.handle core P.List = P.Listing []);
    Vc.prop ~id:"sh/node/import-merges-by-seq" ~category:cat_node (fun () ->
        (* Regression: importing carried entries must not evict the
           target's freshest acks for its other shards — the merge keeps
           the [dup_capacity] highest seqs per client (seqs are
           monotone, so highest = newest), wherever they came from. *)
        let store = Node_core.mem_store () in
        let b = Node_core.create ~dup_capacity:2 ~epoch:0 store in
        Node_core.enable_sharding b ~nshards:4 ~version:0 ~owned:[ 0; 1 ];
        let k0 = key_in ~nshards:4 0 and k1 = key_in ~nshards:4 1 in
        let put ~seq key v =
          Node_core.handle b (put_req ~txn:{ P.client = 7; seq } key v)
        in
        let a1 = put ~seq:10 k1 "a" in
        let a2 = put ~seq:11 k1 "b" in
        (* Older carried entries lose to the target's newer own acks... *)
        Node_core.import_dups b ~shard:0
          [
            ({ P.client = 7; seq = 1 }, P.Done);
            ({ P.client = 7; seq = 2 }, P.Done);
          ];
        let r11 = put ~seq:11 k1 "b" in
        let r10 = put ~seq:10 k1 "a" in
        (* ...while a newer carried entry wins a slot and answers a
           retry landing on the new owner of the migrated shard. *)
        Node_core.import_dups b ~shard:0
          [ ({ P.client = 7; seq = 12 }, P.Done) ];
        let r12 = put ~seq:12 k0 "c" in
        a1 = P.Done && a2 = P.Done
        && r11 = P.Done && r10 = P.Done && r12 = P.Done
        && Node_core.dup_hits b = 3
        && Node_core.applied b = 2);
  ]

let router_vcs =
  [
    Vc.prop ~id:"sh/router/routes-by-owner" ~category:cat_router (fun () ->
        let nshards = 4 in
        let env = quiet_cluster ~nshards ~tag:"routes" () in
        let r = router ~config:(patient_config 2) ~client:1 env in
        let keys = List.init 8 (fun i -> Printf.sprintf "r%d" i) in
        let acks = ref 0 in
        ignore
          (run_world env
             [
               (fun () ->
                 List.iter
                   (fun k ->
                     match SR.put r ~key:k ~value:("v" ^ k) with
                     | Ok () -> incr acks
                     | Error _ -> ())
                   keys);
             ]);
        !acks = 8
        && total_applied env = 8
        && List.for_all
             (fun k ->
               let owner = SM.node_of_key (SR.map env.cluster) k in
               let other = 1 - owner in
               Node_core.handle (core_of env owner) (P.Get k)
               = value_resp ("v" ^ k)
               && Node_core.handle (core_of env other) (P.Get k)
                  = P.Err (P.Wrong_shard 0))
             keys);
    Vc.prop ~id:"sh/router/wrong-shard-reroute" ~category:cat_router
      (fun () ->
        let nshards = 4 in
        let env = quiet_cluster ~nshards ~tag:"reroute" () in
        let r = router ~config:(patient_config 3) ~client:1 env in
        let k = key_in ~nshards 0 in
        let owner = SM.node_of_key (SR.map env.cluster) k in
        let result = ref (Error RC.Breaker_open) in
        Node_core.freeze (core_of env owner) ~shard:0;
        ignore
          (run_world env
             [
               (fun () -> result := SR.put r ~key:k ~value:"v");
               (fun () ->
                 Vtime.sleep 12;
                 Node_core.unfreeze (core_of env owner) ~shard:0);
             ]);
        !result = Ok ()
        && SR.wrong_shard_retries r >= 1
        && Node_core.applied (core_of env owner) = 1);
    Vc.prop ~id:"sh/router/scatter-list" ~category:cat_router (fun () ->
        let env = quiet_cluster ~nshards:4 ~tag:"scatter" () in
        let r = router ~config:(patient_config 4) ~client:1 env in
        let keys = List.init 8 (fun i -> Printf.sprintf "r%d" i) in
        let listed = ref (Error RC.Breaker_open) in
        ignore
          (run_world env
             [
               (fun () ->
                 List.iter
                   (fun k -> ignore (SR.put r ~key:k ~value:"v"))
                   keys;
                 listed := SR.list r);
             ]);
        !listed = Ok (List.sort compare keys));
    Vc.prop ~id:"sh/router/unrouteable-bounded" ~category:cat_router
      (fun () ->
        let nshards = 4 in
        let env = quiet_cluster ~nshards ~tag:"bounded" () in
        let r =
          router ~config:(patient_config 5) ~route_retries:2 ~client:1 env
        in
        let k = key_in ~nshards 0 in
        let owner = SM.node_of_key (SR.map env.cluster) k in
        (* An orphaned shard: released by its owner, never reassigned. *)
        (match Node_core.release (core_of env owner) ~shard:0 with
        | Ok () -> ()
        | Error _ -> failwith "release");
        let result = ref (Ok ()) in
        ignore
          (run_world env [ (fun () -> result := SR.put r ~key:k ~value:"v") ]);
        (match !result with Error (RC.Exhausted _) -> true | _ -> false)
        && SR.wrong_shard_retries r = 3);
    Vc.prop ~id:"sh/router/reads-route" ~category:cat_router (fun () ->
        let env = quiet_cluster ~nshards:4 ~tag:"reads" () in
        let w = router ~config:(patient_config 6) ~client:1 env in
        let r = router ~config:(patient_config 7) ~client:2 env in
        let hit = ref (Error RC.Breaker_open) in
        let miss = ref (Error RC.Breaker_open) in
        ignore
          (run_world env
             [
               (fun () ->
                 ignore (SR.put w ~key:"a" ~value:"v");
                 hit := SR.get r ~key:"a";
                 miss := SR.get r ~key:"zz");
             ]);
        !hit = Ok (Some "v") && !miss = Ok None);
  ]

let migrate_vcs =
  [
    Vc.prop ~id:"sh/migrate/moves-keys" ~category:cat_migrate (fun () ->
        let nshards = 4 in
        let env = quiet_cluster ~nshards ~tag:"moves" () in
        let c = env.cluster in
        let shard = 0 in
        let keys = keys_in ~nshards shard 2 in
        let from_ = SM.node_of (SR.map c) ~shard in
        let to_ = 1 - from_ in
        let r = router ~config:(patient_config 2) ~client:1 env in
        let mig = router ~config:(patient_config 3) ~client:99 env in
        let mig_result = ref (Error "not run") in
        ignore
          (run_world env
             [
               (fun () ->
                 List.iter
                   (fun k -> ignore (SR.put r ~key:k ~value:("v" ^ k)))
                   keys;
                 mig_result := SR.migrate mig ~shard ~to_);
             ]);
        let src_left =
          List.filter
            (fun (k, _) -> SM.shard_of ~nshards k = shard)
            (Node_core.mem_contents env.world.World.nodes.(from_).World.store)
        in
        !mig_result = Ok ()
        && (SR.migration_stats c).SR.keys_moved = 2
        && (SR.migration_stats c).SR.migrations = 1
        && SM.node_of (SR.map c) ~shard = to_
        && SM.version (SR.map c) = 1
        && src_left = []
        && List.for_all
             (fun k ->
               Node_core.handle (core_of env to_) (P.Get k)
               = value_resp ("v" ^ k))
             keys);
    Vc.prop ~id:"sh/migrate/no-key-loss" ~category:cat_migrate (fun () ->
        let nshards = 4 in
        let env = quiet_cluster ~nshards ~tag:"nokeyloss" () in
        let c = env.cluster in
        let r = router ~config:(patient_config 2) ~client:1 env in
        let mig = router ~config:(patient_config 3) ~client:99 env in
        let keys = List.init 10 (fun i -> Printf.sprintf "r%d" i) in
        let before = ref (Error RC.Breaker_open) in
        let after = ref (Error RC.Breaker_open) in
        ignore
          (run_world env
             [
               (fun () ->
                 List.iter
                   (fun k -> ignore (SR.put r ~key:k ~value:"v"))
                   keys;
                 before := SR.list r;
                 let shard = SM.shard_of_key (SR.map c) "r0" in
                 let to_ = 1 - SM.node_of (SR.map c) ~shard in
                 (match SR.migrate mig ~shard ~to_ with
                 | Ok () -> ()
                 | Error _ -> failwith "migrate");
                 after := SR.list r);
             ]);
        !before = Ok (List.sort compare keys) && !after = !before);
    Vc.prop ~id:"sh/migrate/dup-table-carried" ~category:cat_migrate
      (fun () ->
        (* The exactly-once obligation the issue names: a mutation acked
           by the old owner, whose retry lands on the new owner, must be
           answered from the carried table, not re-applied. *)
        let ok, applied_to, dup_hits_to, keys_moved =
          retry_across_handoff ()
        in
        ok && keys_moved = 1 && applied_to = keys_moved && dup_hits_to = 1);
    Vc.prop ~id:"sh/migrate/pause-bounded-and-unfrozen" ~category:cat_migrate
      (fun () ->
        let nshards = 4 in
        let env = quiet_cluster ~nshards ~tag:"pause" () in
        let c = env.cluster in
        let shard = 0 in
        let from_ = SM.node_of (SR.map c) ~shard in
        let to_ = 1 - from_ in
        let r = router ~config:(patient_config 2) ~client:1 env in
        let mig = router ~config:(patient_config 3) ~client:99 env in
        let mig_result = ref (Error "not run") in
        ignore
          (run_world env
             [
               (fun () ->
                 List.iter
                   (fun k -> ignore (SR.put r ~key:k ~value:"v"))
                   (keys_in ~nshards shard 3);
                 mig_result := SR.migrate mig ~shard ~to_);
             ]);
        let st = SR.migration_stats c in
        let src_state = Node_core.shard_state (core_of env from_) in
        let tgt_state = Node_core.shard_state (core_of env to_) in
        !mig_result = Ok ()
        && st.SR.last_pause >= 1
        (* 3 keys, each a read plus a write over quiet links: the pause
           is a small constant multiple of the shard's key count. *)
        && st.SR.last_pause <= 80
        && (match src_state with
           | Some (v, owned, frozen) ->
               v = SM.version (SR.map c)
               && (not (List.mem shard owned))
               && frozen = []
           | None -> false)
        && (match tgt_state with
           | Some (v, owned, _) ->
               v = SM.version (SR.map c) && List.mem shard owned
           | None -> false));
    Vc.prop ~id:"sh/migrate/concurrent-writes-exactly-once"
      ~category:cat_migrate (fun () ->
        (* Writers hammer the migrating shard throughout the handoff;
           every acked mutation must be applied exactly once, counting
           the copy's re-puts separately. *)
        let nshards = 4 in
        let env = quiet_cluster ~nshards ~tag:"concurrent" () in
        let c = env.cluster in
        let shard = 0 in
        let keys = Array.of_list (keys_in ~nshards shard 3) in
        let to_ = 1 - SM.node_of (SR.map c) ~shard in
        let acks = ref 0 in
        let failures = ref 0 in
        let writer p =
          let r = router ~config:(patient_config (10 + p)) ~client:p env in
          fun () ->
            for i = 1 to 6 do
              (match
                 SR.put r
                   ~key:keys.((i + p) mod 3)
                   ~value:(Printf.sprintf "v%d-%d" p i)
               with
              | Ok () -> incr acks
              | Error _ -> incr failures);
              Vtime.sleep 1
            done
        in
        let mig = router ~config:(patient_config 9) ~client:99 env in
        let mig_result = ref (Error "not run") in
        ignore
          (run_world env
             [
               writer 1;
               writer 2;
               (fun () ->
                 Vtime.sleep 6;
                 mig_result := SR.migrate mig ~shard ~to_);
             ]);
        let st = SR.migration_stats c in
        !mig_result = Ok () && !failures = 0 && !acks = 12
        && total_applied env = !acks + st.SR.keys_moved);
    Vc.prop ~id:"sh/migrate/reads-served-during-copy" ~category:cat_migrate
      (fun () ->
        let mig_ok, nones, somes, errors =
          copy_window_reads ()
        in
        mig_ok && nones = 0 && errors = 0 && somes = 40);
    Vc.prop ~id:"sh/migrate/abort-drops-target-residue" ~category:cat_migrate
      (fun () ->
        (* Regression: a migration aborted mid-copy (here the target
           partitions away after the first key lands) must leave no
           trace of the partial copy on the target — pre-fix the target
           kept the adopted shard and its copied keys, so they surfaced
           in [list]'s union, and a source-side delete before the retry
           resurrected the deleted key on the eventual new owner. *)
        let nshards = 4 in
        let env = quiet_cluster ~nshards ~tag:"abortres" () in
        let c = env.cluster and w = env.world in
        let shard = 0 in
        let keys = keys_in ~nshards shard 3 in
        (* The copy walks the source's sorted listing, so the sorted-
           first key is the one that lands before the partition. *)
        let kdel = List.hd (List.sort compare keys) in
        let from_ = SM.node_of (SR.map c) ~shard in
        let to_ = 1 - from_ in
        let r = router ~config:(patient_config 2) ~client:1 env in
        let mig = router ~config:(patient_config 3) ~client:99 env in
        let tgt_residue () =
          List.filter
            (fun (k, _) -> SM.shard_of ~nshards k = shard)
            (Node_core.mem_contents w.World.nodes.(to_).World.store)
        in
        let mig1 = ref (Ok ()) in
        let mig2 = ref (Error "not run") in
        let residue = ref [ ("sentinel", "x") ] in
        let tgt_owns = ref true in
        let listing = ref (Error RC.Breaker_open) in
        let deleted = ref (Ok false) in
        let partitioned = ref false in
        ignore
          (run_world env
             [
               (fun () ->
                 List.iter
                   (fun k -> ignore (SR.put r ~key:k ~value:("v" ^ k)))
                   keys;
                 mig1 := SR.migrate mig ~shard ~to_;
                 residue := tgt_residue ();
                 tgt_owns :=
                   (match Node_core.shard_state (core_of env to_) with
                   | Some (_, owned, _) -> List.mem shard owned
                   | None -> true);
                 listing := SR.list r;
                 deleted := SR.delete r ~key:kdel;
                 World.revive w to_;
                 mig2 := SR.migrate mig ~shard ~to_);
               (fun () ->
                 (* Partition the target as soon as the first copied key
                    lands; bounded, so a copy that never starts fails
                    the VC through [mig1] instead of hanging the sim. *)
                 let tries = ref 0 in
                 while tgt_residue () = [] && !tries < 400 do
                   incr tries;
                   Vtime.sleep 1
                 done;
                 if tgt_residue () <> [] then begin
                   partitioned := true;
                   World.crash w to_
                 end);
             ]);
        !partitioned
        && (match !mig1 with Error _ -> true | Ok () -> false)
        && !residue = []
        && (not !tgt_owns)
        && !listing = Ok (List.sort compare keys)
        && !deleted = Ok true
        && !mig2 = Ok ()
        && SM.node_of (SR.map c) ~shard = to_
        && Node_core.handle (core_of env to_) (P.Get kdel) = P.Missing
        && List.for_all
             (fun k ->
               k = kdel
               || Node_core.handle (core_of env to_) (P.Get k)
                  = value_resp ("v" ^ k))
             keys);
  ]

let lin_vc ~family ~rates ?crash () =
  Vc.make
    ~id:(Printf.sprintf "sh/lin/migration-%s" family)
    ~category:cat_lin
    (fun () ->
      let ok =
        List.for_all
          (fun seed ->
            let m =
              lin_migration ~tag:("lin-" ^ family) ~seed ~rates ?crash ()
            in
            m.rc.errors = [] && m.rc.calls <> [] && m.mig_ok && m.ballast_ok
            && m.restart_ok && KV.linearizable m.rc)
          [ 1; 2; 3 ]
      in
      Vc.outcome_of_bool ok)

let lin_vcs =
  [
    lin_vc ~family:"pass" ~rates:rates_pass ();
    lin_vc ~family:"drop" ~rates:rates_drop ();
    lin_vc ~family:"duplicate" ~rates:rates_dup ();
    lin_vc ~family:"mixed" ~rates:rates_mixed ();
    (* Crash + restart of the node the migration does not touch. *)
    lin_vc ~family:"crash-restart" ~rates:rates_drop
      ~crash:(`Crash_restart (20, 30)) ();
    lin_vc ~family:"epoch-fence" ~rates:rates_pass
      ~crash:(`Crash_restart (20, 1)) ();
    Vc.make ~id:"sh/lin/exactly-once-accounting" ~category:cat_lin (fun () ->
        (* Under every quiet-crash-free family the apply counters close:
           applied = acked mutations + ballast + the copy's re-puts. *)
        let ok =
          List.for_all
            (fun (family, rates) ->
              List.for_all
                (fun seed ->
                  let m =
                    lin_migration ~tag:("eo-" ^ family) ~seed ~rates ()
                  in
                  m.rc.errors = [] && m.mig_ok
                  && m.applied = m.acked_muts + m.nballast + m.keys_moved)
                [ 1; 2; 3 ])
            [ ("pass", rates_pass); ("drop", rates_drop);
              ("duplicate", rates_dup); ("mixed", rates_mixed) ]
        in
        Vc.outcome_of_bool ok);
  ]

let mutation_vcs =
  [
    Vc.make ~id:"sh/mutation/flip-before-copy-caught" ~category:cat_mutation
      (fun () ->
        let ok_ok, ok_nones, ok_somes, ok_errors =
          copy_window_reads ()
        in
        let mut_ok, mut_nones, _, _ =
          copy_window_reads ~mutant:Flip_on_adopt ()
        in
        if not (ok_ok && ok_nones = 0 && ok_errors = 0 && ok_somes > 0) then
          Vc.Falsified "correct protocol lost a read during the copy"
        else if not mut_ok then
          Vc.Falsified "mutant migration failed outright"
        else if mut_nones = 0 then
          Vc.Falsified
            "flip-before-copy mutant not caught: no reader saw the hole"
        else Vc.Proved);
    Vc.make ~id:"sh/mutation/dup-table-dropped-caught" ~category:cat_mutation
      (fun () ->
        let ok, applied_to, dup_hits_to, keys_moved =
          retry_across_handoff ~mutant:Drop_dups ()
        in
        if not ok then Vc.Falsified "mutant handoff failed outright"
        else if applied_to = keys_moved + 1 && dup_hits_to = 0 then
          Vc.Proved
        else
          Vc.Falsified
            (Printf.sprintf
               "dropped dup table not caught: applied %d, moved %d, hits %d"
               applied_to keys_moved dup_hits_to));
    Vc.prop ~id:"sh/mutation/sim-deterministic" ~category:cat_mutation
      (fun () ->
        let go () =
          let m = lin_migration ~tag:"determinism" ~seed:5 ~rates:rates_mixed () in
          ( List.rev_map
              (fun c -> KV.Lin.(c.proc, c.op, c.ret, c.inv, c.res))
              m.rc.calls,
            m.rounds, m.applied, m.keys_moved, m.dups )
        in
        go () = go ());
  ]

let vcs () =
  map_vcs @ protocol_vcs @ node_vcs @ router_vcs @ migrate_vcs @ lin_vcs
  @ mutation_vcs
