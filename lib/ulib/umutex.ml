module type S = sig
  type ctx
  type t

  val create : ctx -> t
  val lock : ctx -> t -> unit
  val unlock : ctx -> t -> unit
  val try_lock : ctx -> t -> bool
  val with_lock : ctx -> t -> (unit -> 'a) -> 'a
end

module Make (W : Word.S) = struct
  type ctx = W.ctx
  type t = W.t

  let create ctx = W.alloc ctx ~name:"mutex" 0L

  (* 0 = unlocked, 1 = locked, 2 = locked with (possible) waiters.

     The contended path must re-acquire with state 2, not 1: a woken
     waiter cannot know whether more waiters sleep behind it, so it must
     keep the waiter flag set or their wakeup is lost (Drepper's "futexes
     are tricky" pitfall — caught by the mutual-exclusion test before
     this comment existed). *)
  let rec lock ctx t =
    if W.update ctx t (fun v -> if v = 0L then 1L else v) <> 0L then
      lock_contended ctx t

  and lock_contended ctx t =
    if W.update ctx t (fun _ -> 2L) <> 0L then begin
      W.futex_wait ctx t ~expected:2L;
      lock_contended ctx t
    end

  let try_lock ctx t = W.update ctx t (fun v -> if v = 0L then 1L else v) = 0L

  let unlock ctx t =
    let v = W.update ctx t (fun _ -> 0L) in
    if v = 0L then failwith "Umutex.unlock: not locked";
    if v = 2L then ignore (W.futex_wake ctx t ~count:1 : int)

  let with_lock ctx t f =
    lock ctx t;
    Fun.protect ~finally:(fun () -> unlock ctx t) f
end

include Make (Word.Usys)
