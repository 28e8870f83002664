type 'op entry = { op : 'op; replica : int; slot : int }

(* A slot holds the entry with index [idx]; [Empty] until the first lap
   publishes into it. *)
type 'op cell = Empty | Cell of { idx : int; e : 'op entry }

exception Full

module Make (C : Cell.S) = struct
  type 'op t = {
    slots : 'op cell C.t array;
    tail_ : int C.t;
    head_ : int C.t;
    capacity : int;
  }

  let create ctx ~capacity =
    if capacity <= 0 then invalid_arg "Log.create: capacity <= 0";
    {
      (* One name for every slot: 4,096 distinct names would cost more
         than the slots. *)
      slots = Array.init capacity (fun _ -> C.make ctx ~name:"slot" Empty);
      tail_ = C.make ctx ~name:"tail" 0;
      head_ = C.make ctx ~name:"head" 0;
      capacity;
    }

  (* Reserve with a CAS loop: the room check happens *before* the new
     tail is published, so a failing append leaves the tail untouched.  A
     fetch-and-add here would advance the tail past slots that will never
     be written, and concurrent readers in [get] would wait forever on
     them.  [head] only grows, so a stale read of it is conservative: it
     can refuse a batch that would fit, never admit one that overwrites an
     entry some replica has not replayed. *)
  let append t entries =
    let n = List.length entries in
    if n = 0 then C.get t.tail_
    else begin
      let rec reserve () =
        let start = C.get t.tail_ in
        if start + n > C.get t.head_ + t.capacity then raise Full
        else if C.compare_and_set t.tail_ start (start + n) then start
        else begin
          Domain.cpu_relax ();
          reserve ()
        end
      in
      let start = reserve () in
      List.iteri
        (fun i e ->
          let idx = start + i in
          C.set t.slots.(idx mod t.capacity) (Cell { idx; e }))
        entries;
      start
    end

  let tail t = C.get t.tail_
  let head t = C.get t.head_

  let advance t h =
    if h > tail t then invalid_arg "Log.advance: past the tail";
    let rec bump () =
      let cur = C.get t.head_ in
      if h > cur && not (C.compare_and_set t.head_ cur h) then bump ()
    in
    bump ()

  (* Wait while the slot still holds an older lap (the publisher has
     reserved [i] but not yet written it). *)
  let get t i =
    if i < 0 || i >= tail t then invalid_arg "Log.get: index out of range";
    match
      C.await t.slots.(i mod t.capacity) (function
        | Cell c -> c.idx >= i
        | Empty -> false)
    with
    | Cell c when c.idx = i -> c.e
    | Empty | Cell _ -> invalid_arg "Log.get: entry reclaimed"
end

include Make (Cell.Atomic)

let create ~capacity = create () ~capacity
