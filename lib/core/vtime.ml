(* Binary min-heap keyed (time, seq): seq breaks ties by insertion order,
   so the schedule is deterministic and FIFO at equal times. *)
module Heap = struct
  type 'a t = {
    mutable times : int array;
    mutable seqs : int array;
    mutable data : 'a array;
    mutable size : int;
    mutable next_seq : int;
    dummy : 'a;
  }

  let create dummy =
    {
      times = Array.make 1024 max_int;
      seqs = Array.make 1024 0;
      data = Array.make 1024 dummy;
      size = 0;
      next_seq = 0;
      dummy;
    }

  let less h i j =
    h.times.(i) < h.times.(j)
    || (h.times.(i) = h.times.(j) && h.seqs.(i) < h.seqs.(j))

  let swap h i j =
    let t = h.times.(i) in
    h.times.(i) <- h.times.(j);
    h.times.(j) <- t;
    let s = h.seqs.(i) in
    h.seqs.(i) <- h.seqs.(j);
    h.seqs.(j) <- s;
    let d = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- d

  let grow h =
    let n = Array.length h.times in
    let times = Array.make (2 * n) max_int in
    let seqs = Array.make (2 * n) 0 in
    let data = Array.make (2 * n) h.dummy in
    Array.blit h.times 0 times 0 h.size;
    Array.blit h.seqs 0 seqs 0 h.size;
    Array.blit h.data 0 data 0 h.size;
    h.times <- times;
    h.seqs <- seqs;
    h.data <- data

  let push h ~time x =
    if h.size = Array.length h.times then grow h;
    let i = h.size in
    h.times.(i) <- time;
    h.seqs.(i) <- h.next_seq;
    h.next_seq <- h.next_seq + 1;
    h.data.(i) <- x;
    h.size <- h.size + 1;
    let i = ref i in
    while !i > 0 && less h !i ((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let time = h.times.(0) and x = h.data.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        swap h 0 h.size;
        h.data.(h.size) <- h.dummy;
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let m = ref !i in
          if l < h.size && less h l !m then m := l;
          if r < h.size && less h r !m then m := r;
          if !m <> !i then begin
            swap h !i !m;
            i := !m
          end
          else continue := false
        done
      end
      else h.data.(0) <- h.dummy;
      Some (time, x)
    end

  let min_time h = if h.size = 0 then None else Some h.times.(0)
end

(* The fiber scheduler: fibers perform [Sleep]; a sleeping fiber's
   continuation waits in the heap under its wake time, so resumption is
   (wake, spawn-order) ordered.  Between quiescent points the world
   advances one round per [tick]. *)

type _ Effect.t += Sleep : int -> unit Effect.t

let sleep n = Effect.perform (Sleep n)

type t = { mutable now : int; queue : (unit -> unit) Heap.t }

let make () = { now = 0; queue = Heap.create ignore }
let now s = s.now

let spawn s fiber =
  let run () =
    Effect.Deep.match_with fiber ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type b) (eff : b Effect.t) ->
            match eff with
            | Sleep n ->
                Some
                  (fun (k : (b, unit) Effect.Deep.continuation) ->
                    Heap.push s.queue ~time:(s.now + max 1 n) (fun () ->
                        Effect.Deep.continue k ()))
            | _ -> None);
      }
  in
  Heap.push s.queue ~time:s.now run

let run ?(max_rounds = 100_000) ~tick s =
  let rec loop () =
    match Heap.min_time s.queue with
    | None -> s.now
    | Some wake when wake <= s.now ->
        (match Heap.pop s.queue with Some (_, resume) -> resume () | None -> ());
        loop ()
    | Some _ ->
        if s.now >= max_rounds then failwith "sim: round bound exceeded";
        s.now <- s.now + 1;
        tick ();
        loop ()
  in
  loop ()
