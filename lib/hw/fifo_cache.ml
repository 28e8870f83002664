module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  (* One slot per insertion.  Invalidation clears [live] and drops the
     slot from the table, but the slot stays in the queue until eviction
     or compaction reaches it; a key inserted again gets a new slot, so
     the old one can never be mistaken for it. *)
  type 'v slot = { key : K.t; mutable value : 'v; mutable live : bool }

  type 'v t = {
    capacity : int;
    table : 'v slot H.t;
    order : 'v slot Queue.t; (* insertion order for FIFO eviction *)
    mutable stale : int; (* dead slots still in [order] *)
    mutable hits : int;
    mutable misses : int;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Fifo_cache.create: capacity <= 0";
    {
      capacity;
      table = H.create capacity;
      order = Queue.create ();
      stale = 0;
      hits = 0;
      misses = 0;
    }

  let find t key =
    match H.find t.table key with
    | s -> Some s.value
    | exception Not_found -> None

  let count t ~hit =
    if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1

  let rec evict_one t =
    let s = Queue.pop t.order in
    if s.live then H.remove t.table s.key
    else begin
      t.stale <- t.stale - 1;
      evict_one t
    end

  let insert t key v =
    match H.find t.table key with
    | s ->
        (* Refresh in place: the entry keeps its FIFO position. *)
        s.value <- v
    | exception Not_found ->
        if H.length t.table >= t.capacity then evict_one t;
        let s = { key; value = v; live = true } in
        H.add t.table key s;
        Queue.push s t.order

  (* Drop every dead slot once they outnumber the capacity, so the queue
     stays under twice the capacity however often a hot key is
     invalidated and inserted again. *)
  let compact t =
    let live = Queue.create () in
    Queue.iter (fun s -> if s.live then Queue.push s live) t.order;
    Queue.clear t.order;
    Queue.transfer live t.order;
    t.stale <- 0

  let invalidate t key =
    match H.find t.table key with
    | s ->
        s.live <- false;
        H.remove t.table key;
        t.stale <- t.stale + 1;
        if t.stale > t.capacity then compact t
    | exception Not_found -> ()

  let flush t =
    H.reset t.table;
    Queue.clear t.order;
    t.stale <- 0

  let entry_count t = H.length t.table
  let queue_length t = Queue.length t.order
  let hits t = t.hits
  let misses t = t.misses

  let reset_counters t =
    t.hits <- 0;
    t.misses <- 0
end
