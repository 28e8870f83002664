module type S = sig
  type ctx
  type t

  val create : ctx -> int -> t
  val post : ctx -> t -> unit
  val wait : ctx -> t -> unit
  val try_wait : ctx -> t -> bool
  val value : ctx -> t -> int
end

module Make (W : Word.S) = struct
  type ctx = W.ctx
  type t = W.t

  let create ctx count =
    if count < 0 then invalid_arg "Usem.create: negative count";
    W.alloc ctx ~name:"sem" (Int64.of_int count)

  let post ctx t =
    ignore (W.update ctx t Int64.succ : int64);
    ignore (W.futex_wake ctx t ~count:1 : int)

  let take v = if v > 0L then Int64.sub v 1L else v

  let rec wait ctx t =
    if W.update ctx t take = 0L then begin
      W.futex_wait ctx t ~expected:0L;
      wait ctx t
    end

  let try_wait ctx t = W.update ctx t take > 0L
  let value ctx t = Int64.to_int (W.load ctx t)
end

include Make (Word.Usys)
