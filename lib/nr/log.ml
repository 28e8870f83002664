type 'op entry = { op : 'op; replica : int; slot : int }

(* A slot holds the entry with index [idx]; [Empty] until the first lap
   publishes into it. *)
type 'op cell = Empty | Cell of { idx : int; e : 'op entry }

type 'op t = {
  slots : 'op cell Atomic.t array;
  tail_ : int Atomic.t;
  head_ : int Atomic.t;
  capacity : int;
}

exception Full

let create ~capacity =
  if capacity <= 0 then invalid_arg "Log.create: capacity <= 0";
  {
    slots = Array.init capacity (fun _ -> Atomic.make Empty);
    tail_ = Atomic.make 0;
    head_ = Atomic.make 0;
    capacity;
  }

(* Reserve with a CAS loop: the room check happens *before* the new tail
   is published, so a failing append leaves the tail untouched.  A
   fetch-and-add here would advance the tail past slots that will never
   be written, and concurrent readers in [get] would spin forever on
   them.  [head] only grows, so a stale read of it is conservative: it can
   refuse a batch that would fit, never admit one that overwrites an
   entry some replica has not replayed. *)
let append t entries =
  let n = List.length entries in
  if n = 0 then Atomic.get t.tail_
  else begin
    let rec reserve () =
      let start = Atomic.get t.tail_ in
      if start + n > Atomic.get t.head_ + t.capacity then raise Full
      else if Atomic.compare_and_set t.tail_ start (start + n) then start
      else begin
        Domain.cpu_relax ();
        reserve ()
      end
    in
    let start = reserve () in
    List.iteri
      (fun i e ->
        let idx = start + i in
        Atomic.set t.slots.(idx mod t.capacity) (Cell { idx; e }))
      entries;
    start
  end

let tail t = Atomic.get t.tail_
let head t = Atomic.get t.head_

let advance t h =
  if h > tail t then invalid_arg "Log.advance: past the tail";
  let rec bump () =
    let cur = Atomic.get t.head_ in
    if h > cur && not (Atomic.compare_and_set t.head_ cur h) then bump ()
  in
  bump ()

(* Spin while the slot still holds an older lap (the publisher has
   reserved [i] but not yet written it). *)
let get t i =
  if i < 0 || i >= tail t then invalid_arg "Log.get: index out of range";
  let rec spin () =
    match Atomic.get t.slots.(i mod t.capacity) with
    | Cell c when c.idx = i -> c.e
    | Cell c when c.idx > i -> invalid_arg "Log.get: entry reclaimed"
    | Empty | Cell _ ->
        Domain.cpu_relax ();
        spin ()
  in
  spin ()

let capacity t = t.capacity
