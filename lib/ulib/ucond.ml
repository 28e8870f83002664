module type S = sig
  type ctx
  type t
  type mutex

  val create : ctx -> t
  val wait : ctx -> t -> mutex -> unit
  val signal : ctx -> t -> unit
  val broadcast : ctx -> t -> unit
end

module Make (W : Word.S) (M : Umutex.S with type ctx = W.ctx) = struct
  type ctx = W.ctx
  type t = W.t
  type mutex = M.t

  let create ctx = W.alloc ctx ~name:"seq" 0L

  let wait ctx t mutex =
    let seq = W.load ctx t in
    M.unlock ctx mutex;
    W.futex_wait ctx t ~expected:seq;
    M.lock ctx mutex

  let bump_and_wake ctx t count =
    ignore (W.update ctx t Int64.succ : int64);
    ignore (W.futex_wake ctx t ~count : int)

  let signal ctx t = bump_and_wake ctx t 1
  let broadcast ctx t = bump_and_wake ctx t max_int
end

include Make (Word.Usys) (Umutex)
