(* Bounded fair admission queue.

   The overload policy has three obligations, each discharged as a VC in
   the `wl` suite:

   - bounded memory: at most [capacity] requests are ever held, no matter
     how fast clients submit — [offer] refuses (sheds) rather than grows;
   - fairness: dequeue is round-robin over clients with queued work, and
     [per_client] caps any one client's share of the buffer, so a flooder
     can neither starve a victim at dispatch time nor squeeze it out of
     admission;
   - FIFO per client: one client's admitted requests are served in the
     order they were offered. *)

type 'a t = {
  capacity : int;
  per_client : int;
  queues : (int, 'a Queue.t) Hashtbl.t; (* client -> FIFO of its work *)
  rotation : int Queue.t; (* clients with queued work, dispatch order *)
  mutable length : int;
  mutable high_water : int;
  mutable admitted : int;
  mutable shed : int;
}

let create ?per_client ~capacity () =
  if capacity < 1 then invalid_arg "Admission.create: capacity < 1";
  let per_client =
    match per_client with
    | None -> capacity
    | Some n ->
        if n < 1 then invalid_arg "Admission.create: per_client < 1";
        min n capacity
  in
  {
    capacity;
    per_client;
    queues = Hashtbl.create 64;
    rotation = Queue.create ();
    length = 0;
    high_water = 0;
    admitted = 0;
    shed = 0;
  }

let queue_for t client =
  match Hashtbl.find_opt t.queues client with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace t.queues client q;
      q

let offer t ~client x =
  let qlen =
    match Hashtbl.find_opt t.queues client with
    | Some q -> Queue.length q
    | None -> 0
  in
  if t.length >= t.capacity || qlen >= t.per_client then begin
    (* Shed without allocating: a refused client leaves no residue, so the
       table's size is bounded by the number of *admitted* clients. *)
    t.shed <- t.shed + 1;
    false
  end
  else begin
    let q = queue_for t client in
    if Queue.is_empty q then Queue.push client t.rotation;
    Queue.push x q;
    t.length <- t.length + 1;
    t.admitted <- t.admitted + 1;
    if t.length > t.high_water then t.high_water <- t.length;
    true
  end

let rec take t =
  if Queue.is_empty t.rotation then None
  else
    let client = Queue.pop t.rotation in
    match Hashtbl.find_opt t.queues client with
    | None -> take t
    | Some q ->
        if Queue.is_empty q then (
          (* Drained between rotations; drop the stale entry. *)
          Hashtbl.remove t.queues client;
          take t)
        else
          let x = Queue.pop q in
          t.length <- t.length - 1;
          if Queue.is_empty q then Hashtbl.remove t.queues client
          else Queue.push client t.rotation;
          Some (client, x)

let length t = t.length
let is_empty t = t.length = 0
let capacity t = t.capacity
let per_client t = t.per_client
let high_water t = t.high_water
let admitted t = t.admitted
let shed t = t.shed
let clients_waiting t = Hashtbl.length t.queues

(* Structural invariants, re-checked by VCs after every step of an
   adversarial schedule: the cached length matches the sum of the
   per-client queues, nothing exceeds its cap, and every non-empty client
   queue is reachable from the rotation (no stranded work). *)
let check_invariants t =
  let total = Hashtbl.fold (fun _ q acc -> acc + Queue.length q) t.queues 0 in
  let caps_ok =
    Hashtbl.fold
      (fun _ q acc -> acc && Queue.length q <= t.per_client)
      t.queues true
  in
  (* A hash set, not a list: the engine checkpoints this on queues with
     tens of thousands of waiting clients (the no-admission bench arm),
     where a List.mem scan per client would go quadratic. *)
  let rotation_members = Hashtbl.create (max 16 (Queue.length t.rotation)) in
  Queue.iter (fun c -> Hashtbl.replace rotation_members c ()) t.rotation;
  let reachable =
    Hashtbl.fold
      (fun c q acc ->
        acc && (Queue.is_empty q || Hashtbl.mem rotation_members c))
      t.queues true
  in
  total = t.length
  && t.length <= t.capacity
  && t.high_water <= t.capacity
  && caps_ok && reachable
