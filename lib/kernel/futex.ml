type key = int * int64

type t = { queues : (key, int Queue.t) Hashtbl.t }

let create () = { queues = Hashtbl.create 16 }

let queue_for t key =
  match Hashtbl.find_opt t.queues key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace t.queues key q;
      q

let enqueue t ~pid ~va ~tid = Queue.push tid (queue_for t (pid, va))

let wake t ~pid ~va ~count =
  match Hashtbl.find_opt t.queues (pid, va) with
  | None -> []
  | Some q ->
      let rec take n acc =
        if n = 0 then List.rev acc
        else begin
          match Queue.take_opt q with
          | None -> List.rev acc
          | Some tid -> take (n - 1) (tid :: acc)
        end
      in
      take count []

let waiters t ~pid ~va =
  match Hashtbl.find_opt t.queues (pid, va) with
  | None -> 0
  | Some q -> Queue.length q

(* Queues left empty are dropped, so the table holds only addresses with
   a waiter and a dead thread's addresses do not stay in it. *)
let remove_thread t ~tid =
  Hashtbl.filter_map_inplace
    (fun _ q ->
      let keep = Queue.create () in
      Queue.iter (fun x -> if x <> tid then Queue.push x keep) q;
      if Queue.is_empty keep then None else Some keep)
    t.queues
