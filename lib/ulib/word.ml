module type S = sig
  type ctx
  type t

  val alloc : ctx -> name:string -> int64 -> t
  val load : ctx -> t -> int64
  val update : ctx -> t -> (int64 -> int64) -> int64
  val futex_wait : ctx -> t -> expected:int64 -> unit
  val futex_wake : ctx -> t -> count:int -> int
end

module Usys = struct
  module U = Bi_kernel.Usys

  type ctx = U.t
  type t = int64

  let fault () = failwith "Word: fault on futex word"

  let load sys va = match U.load sys ~va with Ok v -> v | Error _ -> fault ()

  let store sys va v =
    match U.store sys ~va v with Ok () -> () | Error _ -> fault ()

  let alloc sys ~name:_ init =
    match U.mmap sys ~bytes:4096 with
    | Ok va ->
        if not (Int64.equal init 0L) then store sys va init;
        va
    | Error _ -> failwith "Word.alloc: mmap failed"

  (* No syscall between the load and the store: atomic. *)
  let update sys va f =
    let old = load sys va in
    let v = f old in
    if not (Int64.equal v old) then store sys va v;
    old

  let futex_wait sys va ~expected =
    match U.futex_wait sys ~va ~expected with Ok () | Error _ -> ()

  let futex_wake sys va ~count = U.futex_wake sys ~va ~count
end

module Explore = struct
  module E = Bi_core.Explore

  type ctx = E.ctx
  type t = E.var

  let alloc ctx ~name init = E.var ctx ~name (Int64.to_int init)
  let load ctx v = Int64.of_int (E.read ctx v)

  let update ctx v f =
    Int64.of_int (E.update ctx v (fun x -> Int64.to_int (f (Int64.of_int x))))

  let futex_wait ctx v ~expected = E.park ctx v ~expect:(Int64.to_int expected)
  let futex_wake ctx v ~count = E.unpark ctx v ~count
end
