module type S = sig
  type ctx
  type t

  val create : ctx -> parties:int -> t
  val await : ctx -> t -> int
  val parties : t -> int
end

(* Two words: [count] holds the arrivals of the current round,
   [generation] the round number — the futex word waiters sleep on.
   Waiting on the generation avoids the classic reuse race when the
   barrier cycles. *)
module Make (W : Word.S) = struct
  type ctx = W.ctx
  type t = { count : W.t; generation : W.t; parties : int }

  let create ctx ~parties =
    if parties < 1 then invalid_arg "Ubarrier.create: parties < 1";
    let count = W.alloc ctx ~name:"count" 0L in
    let generation = W.alloc ctx ~name:"gen" 0L in
    { count; generation; parties }

  let parties t = t.parties

  let await ctx t =
    let generation = W.load ctx t.generation in
    (* The last arriver resets the count in the same update. *)
    let arrive c =
      let c = Int64.add c 1L in
      if Int64.to_int c = t.parties then 0L else c
    in
    let arrived = Int64.to_int (W.update ctx t.count arrive) in
    if arrived + 1 = t.parties then begin
      ignore (W.update ctx t.generation Int64.succ : int64);
      ignore (W.futex_wake ctx t.generation ~count:max_int : int)
    end
    else begin
      let rec sleep () =
        if W.load ctx t.generation = generation then begin
          W.futex_wait ctx t.generation ~expected:generation;
          sleep ()
        end
      in
      sleep ()
    end;
    arrived
end

include Make (Word.Usys)
