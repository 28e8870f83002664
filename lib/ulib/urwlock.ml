module type S = sig
  type ctx
  type t

  val create : ctx -> t
  val read_lock : ctx -> t -> unit
  val read_unlock : ctx -> t -> unit
  val write_lock : ctx -> t -> unit
  val write_unlock : ctx -> t -> unit
  val with_read : ctx -> t -> (unit -> 'a) -> 'a
  val with_write : ctx -> t -> (unit -> 'a) -> 'a
end

module Make (W : Word.S) = struct
  type ctx = W.ctx
  type t = W.t

  let create ctx = W.alloc ctx ~name:"rw" 0L

  let rec read_lock ctx t =
    let v = W.update ctx t (fun v -> if v >= 0L then Int64.add v 1L else v) in
    if v < 0L then begin
      W.futex_wait ctx t ~expected:v;
      read_lock ctx t
    end

  let read_unlock ctx t =
    let v = W.update ctx t (fun v -> if v > 0L then Int64.sub v 1L else v) in
    if v <= 0L then failwith "Urwlock.read_unlock: not read-locked";
    if v = 1L then ignore (W.futex_wake ctx t ~count:max_int : int)

  let rec write_lock ctx t =
    let v = W.update ctx t (fun v -> if v = 0L then -1L else v) in
    if v <> 0L then begin
      W.futex_wait ctx t ~expected:v;
      write_lock ctx t
    end

  let write_unlock ctx t =
    let v = W.update ctx t (fun v -> if v = -1L then 0L else v) in
    if v <> -1L then failwith "Urwlock.write_unlock: not write-locked";
    ignore (W.futex_wake ctx t ~count:max_int : int)

  let with_read ctx t f =
    read_lock ctx t;
    Fun.protect ~finally:(fun () -> read_unlock ctx t) f

  let with_write ctx t f =
    write_lock ctx t;
    Fun.protect ~finally:(fun () -> write_unlock ctx t) f
end

include Make (Word.Usys)
