module P = Protocol
module RC = Resilient_client
module FL = Bi_fault.Faulty_link
module Vtime = Bi_core.Vtime

type net = {
  sched : Vtime.t;
  pending : (int, P.resp option ref) Hashtbl.t;
  mutable next_id : int;
}

let net sched = { sched; pending = Hashtbl.create 64; next_id = 1 }

let send net ch req =
  let id = net.next_id in
  net.next_id <- id + 1;
  FL.send ch (P.seal ~id (P.encode_req req));
  id

let call net ch ~attempt_timeout req =
  let slot = ref None in
  let id = send net ch req in
  Hashtbl.replace net.pending id slot;
  let deadline = Vtime.now net.sched + attempt_timeout in
  let rec wait () =
    match !slot with
    | Some resp -> Ok resp
    | None ->
        if Vtime.now net.sched >= deadline then begin
          Hashtbl.remove net.pending id;
          Error "attempt timed out"
        end
        else begin
          Vtime.sleep 1;
          wait ()
        end
  in
  wait ()

let arrivals ch =
  List.filter_map
    (fun frame ->
      match P.unseal frame with
      | None -> None
      | Some (id, body) -> (
          match P.decode_req body ~off:0 with
          | None -> None
          | Some (req, _) -> Some (id, req)))
    (FL.step ch)

let reply ch ~id resp =
  FL.send ch
    (Bi_net.Pkt.Iov.materialize (P.seal_iov ~id (P.encode_resp_iov resp)))

let deliver net ch =
  List.iter
    (fun frame ->
      match P.unseal frame with
      | None -> ()
      | Some (id, body) -> (
          match P.decode_resp body ~off:0 with
          | None -> ()
          | Some (resp, _) -> (
              match Hashtbl.find_opt net.pending id with
              | Some slot ->
                  slot := Some resp;
                  Hashtbl.remove net.pending id
              | None -> ())))
    (FL.step ch)

let patient_config seed =
  {
    RC.max_attempts = 10;
    backoff_base = 2;
    backoff_cap = 8;
    jitter_pm = 1;
    breaker_threshold = 10_000;
    breaker_cooldown = 50;
    deadline = 2_000;
    seed;
  }

let net_clock net =
  { RC.now = (fun () -> Vtime.now net.sched); sleep = Vtime.sleep }

type node = {
  name : string;
  store : Node_core.store;
  journal : Journal.t;
  mutable core : Node_core.t;
  mutable up : bool;
  mutable node_epoch : int;
  mutable last_recovery : Node_core.recovery;
  req_ch : FL.channel;
  resp_ch : FL.channel;
}

type t = { net : net; nodes : node array }

let node ~name ~req_plan ~resp_plan () =
  let store = Node_core.mem_store () in
  let journal = Journal.create (fst (Journal.mem_sink ())) in
  {
    name;
    store;
    journal;
    core = Node_core.create ~epoch:0 ~journal store;
    up = true;
    node_epoch = 0;
    last_recovery = Node_core.no_recovery;
    req_ch = FL.channel req_plan;
    resp_ch = FL.channel resp_plan;
  }

let create sched nodes = { net = net sched; nodes = Array.of_list nodes }

let crash t i = t.nodes.(i).up <- false

let revive t i = t.nodes.(i).up <- true

let restart t i =
  let n = t.nodes.(i) in
  n.node_epoch <- n.node_epoch + 1;
  n.core <- Node_core.create ~epoch:n.node_epoch ~journal:n.journal n.store;
  n.last_recovery <- Node_core.recover n.core;
  n.up <- true

let tick t =
  Array.iter
    (fun n ->
      let reqs = arrivals n.req_ch in
      if n.up then
        List.iter
          (fun (id, req) -> reply n.resp_ch ~id (Node_core.handle n.core req))
          reqs;
      deliver t.net n.resp_ch)
    t.nodes

let endpoint t i ~attempt_timeout : RC.endpoint =
  let n = t.nodes.(i) in
  { RC.name = n.name; rpc = call t.net n.req_ch ~attempt_timeout }

let clock t = net_clock t.net

let admin t i : Shard_router.admin =
  let core () = t.nodes.(i).core in
  let msg = Result.map_error (Format.asprintf "%a" P.pp_err) in
  {
    a_name = t.nodes.(i).name;
    freeze = (fun ~shard -> Node_core.freeze (core ()) ~shard);
    unfreeze = (fun ~shard -> Node_core.unfreeze (core ()) ~shard);
    adopt = (fun ~shard -> msg (Node_core.adopt (core ()) ~shard));
    release = (fun ~shard -> msg (Node_core.release (core ()) ~shard));
    export_dups = (fun ~shard -> Node_core.export_dups (core ()) ~shard);
    import_dups =
      (fun ~shard entries -> Node_core.import_dups (core ()) ~shard entries);
    set_version = (fun v -> Node_core.set_map_version (core ()) v);
  }
