module Make (C : Cell.S) = struct
  type t = { state : int C.t }

  (* state >= 0: number of readers; state = -1: writer holds the lock. *)

  let create ctx = { state = C.make ctx ~name:"rw" 0 }

  let rec acquire_read t =
    let s = C.await t.state (fun s -> s >= 0) in
    if not (C.compare_and_set t.state s (s + 1)) then acquire_read t

  let release_read t = ignore (C.fetch_and_add t.state (-1))

  let try_acquire_write t = C.compare_and_set t.state 0 (-1)

  let rec acquire_write t =
    if not (try_acquire_write t) then begin
      ignore (C.await t.state (fun s -> s = 0));
      acquire_write t
    end

  let release_write t = C.set t.state 0

  let with_read t f =
    acquire_read t;
    Fun.protect ~finally:(fun () -> release_read t) f

  let with_write t f =
    acquire_write t;
    Fun.protect ~finally:(fun () -> release_write t) f

  let readers t =
    let s = C.get t.state in
    if s < 0 then 0 else s
end

include Make (Cell.Atomic)
