module P = Protocol
module RC = Resilient_client

(* A replica is fenced ("stale") the moment it is known to have missed an
   acknowledged mutation, or the moment its applied state becomes unknown
   (an ambiguous write failure, a restart detected by an epoch bump).
   Stale replicas serve no reads and receive no writes until [resync]
   rebuilds them from a synced peer. *)
type replica = {
  rc : RC.t;
  name : string;
  mutable synced : bool;
  mutable epoch : int option;  (* last epoch seen in a Pong *)
}

type t = {
  replicas : replica array;
  client : int;
  mutable seq : int;
  mutable failovers : int;
}

type error =
  | Invalid_key
  | No_synced_replica
  | Op_failed of (string * RC.error) list

let pp_error ppf = function
  | Invalid_key -> Format.pp_print_string ppf "invalid key (rejected locally)"
  | No_synced_replica -> Format.pp_print_string ppf "no synced replica"
  | Op_failed per ->
      Format.fprintf ppf "operation failed on all synced replicas:";
      List.iter
        (fun (name, e) -> Format.fprintf ppf " [%s: %a]" name RC.pp_error e)
        per

let create ?config ~client clock endpoints =
  let replicas =
    endpoints
    |> List.map (fun (ep : RC.endpoint) ->
           {
             rc = RC.create ?config ~client clock ep;
             name = ep.RC.name;
             synced = true;
             epoch = None;
           })
    |> Array.of_list
  in
  { replicas; client; seq = 0; failovers = 0 }

let next_txn t =
  t.seq <- t.seq + 1;
  { P.client = t.client; seq = t.seq }

let synced_names t =
  Array.to_list t.replicas
  |> List.filter_map (fun r -> if r.synced then Some r.name else None)

let failovers t = t.failovers

let stats t = RC.total_stats (Array.map (fun r -> r.rc) t.replicas)

(* An error after which the replica's applied state is unknown: the
   mutation may or may not have landed (ack lost, deadline mid-flight).
   A definitive rejection means the replica certainly did not apply. *)
let ambiguous = function
  | RC.Exhausted _ | RC.Deadline -> true
  | RC.Invalid_key | RC.Breaker_open | RC.Remote _ -> false

(* Fan a mutation to every synced replica under one shared txn.  If any
   replica acks, the op succeeds and every synced replica that did not
   ack is fenced (it missed an acknowledged mutation).  If none acks,
   the op fails and only ambiguous failures are fenced. *)
let mutate t run =
  let txn = next_txn t in
  let outcomes =
    Array.to_list t.replicas
    |> List.filter_map (fun r ->
           if r.synced then Some (r, run r.rc txn) else None)
  in
  if outcomes = [] then Error No_synced_replica
  else
    let acked =
      List.filter_map
        (fun (_, res) -> match res with Ok v -> Some v | Error _ -> None)
        outcomes
    in
    match acked with
    | v :: _ ->
        List.iter
          (fun (r, res) -> if Result.is_error res then r.synced <- false)
          outcomes;
        Ok v
    | [] ->
        (* No ack anywhere: fence the ambiguous replicas — unless this is
           a single-replica set, where there is no peer to diverge from
           and fencing would only trade a failed op for a bricked set. *)
        if Array.length t.replicas > 1 then
          List.iter
            (fun (r, res) ->
              match res with
              | Error e when ambiguous e -> r.synced <- false
              | _ -> ())
            outcomes;
        Error
          (Op_failed
             (List.map
                (fun (r, res) ->
                  ( r.name,
                    match res with
                    | Error e -> e
                    | Ok _ -> assert false ))
                outcomes))

let guard_key key k = if P.valid_key key then k () else Error Invalid_key

let put t ~key ~value =
  guard_key key (fun () ->
      mutate t (fun rc txn ->
          match RC.put_txn rc ~txn ~key ~value with
          | Ok () -> Ok `Done
          | Error e -> Error e)
      |> Result.map (fun _ -> ()))

let delete t ~key =
  guard_key key (fun () ->
      mutate t (fun rc txn ->
          match RC.delete_txn rc ~txn ~key with
          | Ok existed -> Ok (`Deleted existed)
          | Error e -> Error e)
      |> Result.map (function `Deleted b -> b | _ -> false))

(* Reads fail over across synced replicas only: a stale replica may hold
   an old value, and serving it would break linearizability. *)
let read t run =
  let rec go i skipped errs =
    if i >= Array.length t.replicas then
      if errs = [] then Error No_synced_replica
      else Error (Op_failed (List.rev errs))
    else
      let r = t.replicas.(i) in
      if not r.synced then go (i + 1) (skipped + 1) errs
      else
        match run r.rc with
        | Ok v ->
            if skipped > 0 then t.failovers <- t.failovers + 1;
            Ok v
        | Error e -> go (i + 1) (skipped + 1) ((r.name, e) :: errs)
  in
  go 0 0 []

let get t ~key =
  guard_key key (fun () -> read t (fun rc -> RC.get rc ~key))

let list t = read t (fun rc -> RC.list rc)

(* Ping every replica (fenced ones included).  A synced replica whose
   epoch moved has restarted: its duplicate table is gone and it may have
   missed mutations while down, so it is fenced until resync. *)
let check_health t =
  Array.to_list t.replicas
  |> List.map (fun r ->
         match RC.ping r.rc with
         | Ok (health, epoch) ->
             (match r.epoch with
             | Some e when e <> epoch && r.synced -> r.synced <- false
             | _ -> ());
             r.epoch <- Some epoch;
             (r.name, `Ok (health, epoch))
         | Error e ->
             (r.name, `Err e))

(* Rebuild fenced replicas from a synced source.  If no replica is
   synced (every write ended ambiguous), the first replica that answers
   [List] is promoted to source of truth. *)
let resync t =
  let source =
    match Array.to_list t.replicas |> List.find_opt (fun r -> r.synced) with
    | Some r -> Some r
    | None ->
        Array.to_list t.replicas
        |> List.find_opt (fun r -> Result.is_ok (RC.list r.rc))
  in
  match source with
  | None -> Error No_synced_replica
  | Some src -> (
      match RC.list src.rc with
      | Error e -> Error (Op_failed [ (src.name, e) ])
      | Ok keys ->
          let repaired = ref 0 in
          Array.iter
            (fun r ->
              if r != src && not r.synced then (
                let healthy = ref true in
                (* Drop keys the source no longer has... *)
                (match RC.list r.rc with
                | Error _ -> healthy := false
                | Ok rkeys ->
                    List.iter
                      (fun k ->
                        if not (List.mem k keys) then
                          match
                            RC.delete_txn r.rc ~txn:(next_txn t) ~key:k
                          with
                          | Ok _ -> ()
                          | Error _ -> healthy := false)
                      rkeys);
                (* ...then copy every source key over. *)
                List.iter
                  (fun k ->
                    match RC.get src.rc ~key:k with
                    | Ok (Some v) -> (
                        match
                          RC.put_txn r.rc ~txn:(next_txn t) ~key:k ~value:v
                        with
                        | Ok () -> ()
                        | Error _ -> healthy := false)
                    | Ok None -> ()
                    | Error _ -> healthy := false)
                  keys;
                if !healthy then (
                  (match RC.ping r.rc with
                  | Ok (_, epoch) -> r.epoch <- Some epoch
                  | Error _ -> ());
                  r.synced <- true;
                  incr repaired)))
            t.replicas;
          src.synced <- true;
          Ok !repaired)
