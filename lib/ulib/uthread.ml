type status = Running | Done of Obj.t | Failed of exn

type 'a handle = { id : int; mutable status : status }

exception Deadlock

type _ Effect.t +=
  | Yield : unit Effect.t
  | Spawn : (unit -> Obj.t) * Obj.t handle -> unit Effect.t

type scheduler = {
  run_queue : (unit -> unit) Queue.t;
  mutable live : int;
  mutable next_id : int;
}

(* One scheduler per [run] call; effects reach the innermost run. *)
let current : scheduler option ref = ref None

let enqueue sched thunk = Queue.push thunk sched.run_queue

let schedule sched =
  let rec loop () =
    match Queue.take_opt sched.run_queue with
    | None -> ()
    | Some thunk ->
        thunk ();
        loop ()
  in
  loop ()
let rec start_thread sched (body : unit -> Obj.t) (h : Obj.t handle) =
  sched.live <- sched.live + 1;
  let run_body () =
    Effect.Deep.match_with
      (fun () ->
        match body () with
        | v -> h.status <- Done v
        | exception e -> h.status <- Failed e)
      ()
      {
        Effect.Deep.retc = (fun () -> sched.live <- sched.live - 1);
        exnc =
          (fun e ->
            sched.live <- sched.live - 1;
            raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    enqueue sched (fun () -> Effect.Deep.continue k ()))
            | Spawn (body', h') ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    enqueue sched (fun () -> start_thread sched body' h');
                    Effect.Deep.continue k ())
            | _ -> None);
      }
  in
  run_body ()

let run main =
  let sched = { run_queue = Queue.create (); live = 0; next_id = 0 } in
  let saved = !current in
  current := Some sched;
  Fun.protect
    ~finally:(fun () -> current := saved)
    (fun () ->
      let h : Obj.t handle = { id = 0; status = Running } in
      start_thread sched (fun () -> Obj.repr (main ())) h;
      schedule sched;
      match h.status with
      | Done v -> Obj.obj v
      | Failed e -> raise e
      | Running -> raise Deadlock)

let sched () =
  match !current with
  | Some s -> s
  | None -> invalid_arg "Uthread: not inside Uthread.run"

let spawn (f : unit -> 'a) : 'a handle =
  let s = sched () in
  s.next_id <- s.next_id + 1;
  let h : Obj.t handle = { id = s.next_id; status = Running } in
  Effect.perform (Spawn ((fun () -> Obj.repr (f ())), h));
  (Obj.magic h : 'a handle)

let yield () = Effect.perform Yield

let rec join (h : 'a handle) : 'a =
  match h.status with
  | Done v -> (Obj.obj (Obj.repr v) : 'a)
  | Failed e -> raise e
  | Running ->
      let s = sched () in
      if Queue.is_empty s.run_queue then raise Deadlock;
      yield ();
      join h

