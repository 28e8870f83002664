let sum = List.fold_left ( +. ) 0.

let mean = function
  | [] -> 0.
  | xs -> sum xs /. float_of_int (List.length xs)

let percentile p xs =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty list"
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let rank = int_of_float (ceil (p *. float_of_int n)) in
      let idx = max 0 (min (n - 1) (rank - 1)) in
      a.(idx)

let cdf xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then []
  else begin
    let points = ref [] in
    for i = n - 1 downto 0 do
      (* Keep only the last (highest-fraction) point for each distinct x. *)
      let keep =
        match !points with
        | (x, _) :: _ -> a.(i) < x
        | [] -> true
      in
      if keep then points := (a.(i), float_of_int (i + 1) /. float_of_int n) :: !points
    done;
    !points
  end

(* Bounded-memory percentile sketch: Vitter's Algorithm R over a [Gen]
   stream, so a million-sample latency trace needs [capacity] floats, not a
   million, and two runs with equal seeds keep equal reservoirs.  Below
   capacity the reservoir holds every sample, so [percentile] agrees
   exactly with [Stats.percentile] on the same data. *)
module Reservoir = struct
  type t = {
    capacity : int;
    samples : float array;
    g : Gen.t;
    mutable seen : int;
    mutable total : float;
    mutable mn : float;
    mutable mx : float;
    mutable sorted : float array option; (* cache, invalidated on add *)
  }

  let create ?(capacity = 4096) ~seed () =
    if capacity < 1 then invalid_arg "Stats.Reservoir.create: capacity < 1";
    {
      capacity;
      samples = Array.make capacity 0.;
      g = Gen.create seed;
      seen = 0;
      total = 0.;
      mn = infinity;
      mx = neg_infinity;
      sorted = None;
    }

  let add t x =
    (if t.seen < t.capacity then begin
       t.samples.(t.seen) <- x;
       t.sorted <- None
     end
     else
       let j = Gen.int t.g (t.seen + 1) in
       if j < t.capacity then begin
         t.samples.(j) <- x;
         t.sorted <- None
       end);
    t.seen <- t.seen + 1;
    t.total <- t.total +. x;
    if x < t.mn then t.mn <- x;
    if x > t.mx then t.mx <- x

  let count t = t.seen
  let stored t = min t.seen t.capacity
  let capacity t = t.capacity

  let sorted t =
    match t.sorted with
    | Some a -> a
    | None ->
        let a = Array.sub t.samples 0 (stored t) in
        Array.sort Float.compare a;
        t.sorted <- Some a;
        a

  (* Nearest-rank over the stored samples — the same formula as
     [Stats.percentile], which makes the below-capacity agreement exact
     rather than approximate. *)
  let percentile p t =
    let a = sorted t in
    let n = Array.length a in
    if n = 0 then invalid_arg "Stats.Reservoir.percentile: empty reservoir";
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    a.(idx)

  (* Mean/min/max are tracked exactly over the full stream, not sampled. *)
  let mean t = if t.seen = 0 then 0. else t.total /. float_of_int t.seen
  let min_seen t = t.mn
  let max_seen t = t.mx
  let to_list t = Array.to_list (sorted t)
end

let histogram ~bins xs =
  match xs with
  | [] -> []
  | _ ->
      let lo = List.fold_left min infinity xs in
      let hi = List.fold_left max neg_infinity xs in
      let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1. in
      let counts = Array.make bins 0 in
      let assign x =
        let i = int_of_float ((x -. lo) /. width) in
        let i = max 0 (min (bins - 1) i) in
        counts.(i) <- counts.(i) + 1
      in
      List.iter assign xs;
      List.init bins (fun i -> (lo +. (width *. float_of_int (i + 1)), counts.(i)))
