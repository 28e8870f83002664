module type S = sig
  type ctx
  type 'a t

  val make : ctx -> name:string -> 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val fetch_and_add : int t -> int -> int
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val await : 'a t -> ('a -> bool) -> 'a
end

module Atomic = struct
  type ctx = unit
  type 'a t = 'a Stdlib.Atomic.t

  let make () ~name:_ v = Stdlib.Atomic.make v
  let get = Stdlib.Atomic.get
  let set = Stdlib.Atomic.set
  let exchange = Stdlib.Atomic.exchange
  let fetch_and_add = Stdlib.Atomic.fetch_and_add
  let compare_and_set = Stdlib.Atomic.compare_and_set

  let rec await c p =
    let v = Stdlib.Atomic.get c in
    if p v then v
    else begin
      Domain.cpu_relax ();
      await c p
    end
end

module Explore = struct
  module E = Bi_core.Explore

  type ctx = E.ctx

  type 'a t = {
    ctx : E.ctx;
    var : E.var;  (* index into [vals] of the current value *)
    mutable vals : 'a array;  (* append-only: [vals.(i)] never changes *)
    mutable len : int;
  }

  let make ctx ~name v =
    { ctx; var = E.var ctx ~name 0; vals = [| v |]; len = 1 }

  (* Append [v] to the table, before the var operation that publishes
     its index. *)
  let push c v =
    if c.len = Array.length c.vals then begin
      let grown = Array.make (2 * c.len) v in
      Array.blit c.vals 0 grown 0 c.len;
      c.vals <- grown
    end;
    c.vals.(c.len) <- v;
    c.len <- c.len + 1;
    c.len - 1

  let get c = c.vals.(E.read c.ctx c.var)
  let set c v = E.write c.ctx c.var (push c v)
  let exchange c v = c.vals.(E.update c.ctx c.var (Fun.const (push c v)))

  (* The sum depends on the old value, so it is appended when the update
     runs, still before the var holds its index. *)
  let fetch_and_add c n =
    c.vals.(E.update c.ctx c.var (fun o -> push c (c.vals.(o) + n)))

  (* [c.vals] is read when the update runs: another thread may have
     grown the table since this thread pushed. *)
  let compare_and_set c seen v =
    let i = push c v in
    c.vals.(E.update c.ctx c.var (fun o -> if c.vals.(o) == seen then i else o))
    == seen

  let await c p = c.vals.(E.await c.ctx c.var (fun i -> p c.vals.(i)))
end
