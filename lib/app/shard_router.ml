module P = Protocol
module RC = Resilient_client

(* Out-of-band control surface of one node, as the migration driver sees
   it.  In the simulated worlds these are closures over the live
   Node_core; in a deployment they would be an admin RPC channel. *)
type admin = {
  a_name : string;
  freeze : shard:int -> unit;
  unfreeze : shard:int -> unit;
  adopt : shard:int -> (unit, string) result;
  release : shard:int -> (unit, string) result;
  export_dups : shard:int -> (P.txn * P.resp) list;
  import_dups : shard:int -> (P.txn * P.resp) list -> unit;
  set_version : int -> unit;
}

type migration_stats = {
  mutable migrations : int;
  mutable keys_moved : int;
  mutable last_pause : int;
}

type cluster = {
  mutable map : Shard_map.t;
  admins : admin array;
  endpoints : RC.endpoint array;
  mig : migration_stats;
}

let cluster ~map ~admins ~endpoints =
  if Array.length admins <> Array.length endpoints then
    invalid_arg "Shard_router.cluster: admins/endpoints length mismatch";
  {
    map;
    admins;
    endpoints;
    mig = { migrations = 0; keys_moved = 0; last_pause = 0 };
  }

let map c = c.map
let migration_stats c = c.mig

type t = {
  cluster : cluster;
  rcs : RC.t array;
  clock : RC.clock;
  client : int;
  mutable seq : int;
  route_retries : int;
  mutable s_wrong_shard : int;
}

let connect ?config ?(route_retries = 200) ~client cluster clock =
  {
    cluster;
    rcs = Array.map (fun ep -> RC.create ?config ~client clock ep) cluster.endpoints;
    clock;
    client;
    seq = 0;
    route_retries;
    s_wrong_shard = 0;
  }

let next_txn t =
  t.seq <- t.seq + 1;
  { P.client = t.client; seq = t.seq }

let wrong_shard_retries t = t.s_wrong_shard

(* The routing loop: pick the owner from the current map, run the call,
   and on [Wrong_shard] wait one clock unit, refresh the map (re-read the
   cluster's value) and re-route — same txn, so a mutation whose retry
   lands on the new owner is still answered exactly-once from the
   carried duplicate table. *)
let with_routing t key (call : RC.t -> ('a, RC.error) result) =
  let rec go tries =
    let node = Shard_map.node_of_key t.cluster.map key in
    match call t.rcs.(node) with
    | Error (RC.Remote (P.Wrong_shard _)) ->
        t.s_wrong_shard <- t.s_wrong_shard + 1;
        if tries >= t.route_retries then
          Error (RC.Exhausted "no route to shard")
        else begin
          t.clock.RC.sleep 1;
          go (tries + 1)
        end
    | r -> r
  in
  go 0

let guard_key key k = if P.valid_key key then k () else Error RC.Invalid_key

let put t ~key ~value =
  guard_key key (fun () ->
      let txn = next_txn t in
      with_routing t key (fun rc -> RC.put_txn rc ~txn ~key ~value))

let delete t ~key =
  guard_key key (fun () ->
      let txn = next_txn t in
      with_routing t key (fun rc -> RC.delete_txn rc ~txn ~key))

let get t ~key = guard_key key (fun () -> with_routing t key (fun rc -> RC.get rc ~key))

(* Scatter-gather: every node lists the keys it serves; the union is the
   keyspace.  During a migration's copy window a key may appear on both
   source and target — the union dedups it. *)
let list t =
  let oks, errs =
    Array.fold_left
      (fun (oks, errs) rc ->
        match RC.list rc with
        | Ok ks -> (ks :: oks, errs)
        | Error e -> (oks, e :: errs))
      ([], []) t.rcs
  in
  if oks = [] then
    Error
      (match errs with e :: _ -> e | [] -> RC.Exhausted "no nodes")
  else Ok (List.sort_uniq compare (List.concat oks))

(* ------------------------------------------------------------------ *)
(* Live shard migration: freeze -> copy -> carry dups -> flip -> drain. *)

let flip c ~shard ~to_ =
  c.map <- Shard_map.assign c.map ~shard ~node:to_;
  let v = Shard_map.version c.map in
  Array.iter (fun a -> a.set_version v) c.admins

let migrate t ~shard ~to_ =
  let c = t.cluster in
  if shard < 0 || shard >= Shard_map.nshards c.map then
    Error "migrate: shard out of range"
  else if to_ < 0 || to_ >= Array.length c.admins then
    Error "migrate: node out of range"
  else
    let from_ = Shard_map.node_of c.map ~shard in
    if from_ = to_ then Ok ()
    else begin
      let t0 = t.clock.RC.now () in
      let src = c.admins.(from_) and tgt = c.admins.(to_) in
      src.freeze ~shard;
      match tgt.adopt ~shard with
      | Error msg ->
          (* The target could not purge stale residue of the shard (see
             {!Node_core.adopt}); it never took ownership, so only the
             freeze needs lifting. *)
          src.unfreeze ~shard;
          Error (Printf.sprintf "adopt %s: %s" tgt.a_name msg)
      | Ok () ->
      let nshards = Shard_map.nshards c.map in
      let copy () =
        match RC.list t.rcs.(from_) with
        | Error e -> Error (Format.asprintf "list %s: %a" src.a_name RC.pp_error e)
        | Ok keys ->
            let mine =
              List.filter (fun k -> Shard_map.shard_of ~nshards k = shard) keys
            in
            let rec go = function
              | [] -> Ok ()
              | k :: rest -> (
                  match RC.get t.rcs.(from_) ~key:k with
                  | Error e ->
                      Error
                        (Format.asprintf "read %s/%s: %a" src.a_name k
                           RC.pp_error e)
                  | Ok None -> go rest
                  | Ok (Some v) -> (
                      match
                        RC.put_txn t.rcs.(to_) ~txn:(next_txn t) ~key:k ~value:v
                      with
                      | Ok () ->
                          c.mig.keys_moved <- c.mig.keys_moved + 1;
                          go rest
                      | Error e ->
                          Error
                            (Format.asprintf "write %s/%s: %a" tgt.a_name k
                               RC.pp_error e)))
            in
            go mine
      in
      match copy () with
      | Error msg ->
          (* Abort: first drop the shard on the target — releasing it
             unsets ownership and sweeps the partial copy, so the stale
             keys neither surface in [list]'s scatter-gather union nor
             survive to be resurrected by a later retry (a key deleted
             at the source after the abort would never be overwritten by
             the retry's copy).  Only then lift the freeze; the map
             never flipped, so the source still owns the shard.  If the
             target's sweep itself fails, the residue stays hidden
             (un-owned) and the next attempt's adopt purges it. *)
          (match tgt.release ~shard with Ok () | Error _ -> ());
          src.unfreeze ~shard;
          Error msg
      | Ok () ->
          let entries = src.export_dups ~shard in
          tgt.import_dups ~shard entries;
          flip c ~shard ~to_;
          c.mig.last_pause <- t.clock.RC.now () - t0;
          (match src.release ~shard with Ok () | Error _ -> ());
          c.mig.migrations <- c.mig.migrations + 1;
          Ok ()
    end
