(* Stateful schedule explorer: coroutine threads over an instrumented
   shared-state API, DFS over schedules with sleep-set POR and preemption
   bounding, deterministic replay, minimal-preemption shrinking.

   Threads are OCaml 5 effect-handler coroutines: every instrumented
   operation performs a [Yield] carrying a description of the operation
   (object identity, read/write classification, enabledness, and the
   action to run when scheduled); the scheduler resumes exactly one
   continuation per step, so an execution is fully determined by the
   sequence of thread choices — a schedule is a replayable artifact.

   Exploration is replay-based (CHESS-style): state is mutable, so each
   schedule re-runs [make] and the thread bodies from scratch following
   the decision path, then extends the path depth-first.  Sleep sets are
   thread bitmasks attached to the decision nodes. *)

exception Violation of string

(* ------------------------------------------------------------------ *)
(* Shared objects                                                      *)

type var = {
  vid : int;
  vname : string option;
  mutable value : int;
  mutable parked : int list;  (* tids blocked on this cell, FIFO *)
}

type lock = { lid : int; lname : string option; mutable owner : int option }

type ctx = {
  mutable next_oid : int;
  mutable clock : int;
  mutable running : int;
}

let var ctx ?name init =
  let vid = ctx.next_oid in
  ctx.next_oid <- vid + 1;
  { vid; vname = name; value = init; parked = [] }

let lock ctx ?name () =
  let lid = ctx.next_oid in
  ctx.next_oid <- lid + 1;
  { lid; lname = name; owner = None }

(* Names are only needed to render a failure, so the defaults are
   formatted then. *)
let var_name v =
  match v.vname with Some n -> n | None -> Printf.sprintf "v%d" v.vid

let lock_name l =
  match l.lname with Some n -> n | None -> Printf.sprintf "l%d" l.lid

let peek v = v.value

let self ctx = ctx.running

let now ctx =
  ctx.clock <- ctx.clock + 1;
  ctx.clock

let check _ctx cond msg = if not cond then raise (Violation msg)

(* ------------------------------------------------------------------ *)
(* Yield points                                                        *)

(* What an operation does when the scheduler runs it. *)
type action =
  | Resume of int  (* value handed back to the thread *)
  | Park_me of var  (* block the thread on the cell *)
  | Wake of int list * int  (* tids to make runnable, value handed back *)

(* An operation carries no formatted text: [descr] renders it from the
   arguments it captured at yield time, and only a failure calls it. *)
type pending = {
  obj : int;  (* object identity, for (in)dependence *)
  writes : bool;  (* conservative: does it modify the object? *)
  descr : unit -> string;
  poll : unit -> bool;  (* enabled in the current state? *)
  act : int -> action;  (* run the op as thread [tid] *)
}

type _ Effect.t += Yield : pending -> int Effect.t

let always () = true

let op p = Effect.perform (Yield p)

let read _ctx v =
  op
    {
      obj = v.vid;
      writes = false;
      descr = (fun () -> Printf.sprintf "read %s" (var_name v));
      poll = always;
      act = (fun _ -> Resume v.value);
    }

let write _ctx v x =
  ignore
    (op
       {
         obj = v.vid;
         writes = true;
         descr = (fun () -> Printf.sprintf "write %s=%d" (var_name v) x);
         poll = always;
         act =
           (fun _ ->
             v.value <- x;
             Resume 0);
       })

let cas _ctx v ~expect ~set =
  op
    {
      obj = v.vid;
      writes = true;
      descr =
        (fun () -> Printf.sprintf "cas %s %d->%d" (var_name v) expect set);
      poll = always;
      act =
        (fun _ ->
          if v.value = expect then begin
            v.value <- set;
            Resume 1
          end
          else Resume 0);
    }
  = 1

let update _ctx v f =
  op
    {
      obj = v.vid;
      writes = true;
      descr = (fun () -> Printf.sprintf "rmw %s" (var_name v));
      poll = always;
      act =
        (fun _ ->
          let old = v.value in
          v.value <- f old;
          Resume old);
    }

let acquire _ctx l =
  ignore
    (op
       {
         obj = l.lid;
         writes = true;
         descr = (fun () -> Printf.sprintf "acquire %s" (lock_name l));
         poll = (fun () -> l.owner = None);
         act =
           (fun tid ->
             l.owner <- Some tid;
             Resume 0);
       })

let release _ctx l =
  ignore
    (op
       {
         obj = l.lid;
         writes = true;
         descr = (fun () -> Printf.sprintf "release %s" (lock_name l));
         poll = always;
         act =
           (fun tid ->
             match l.owner with
             | Some o when o = tid ->
                 l.owner <- None;
                 Resume 0
             | _ ->
                 raise
                   (Violation
                      (Printf.sprintf "release of %s not held by t%d"
                         (lock_name l) tid)));
       })

let park _ctx v ~expect =
  ignore
    (op
       {
         obj = v.vid;
         writes = true;
         descr =
           (fun () -> Printf.sprintf "park %s if=%d" (var_name v) expect);
         poll = always;
         act = (fun _ -> if v.value = expect then Park_me v else Resume 1);
       })

let park_any _ctx v =
  ignore
    (op
       {
         obj = v.vid;
         writes = true;
         descr = (fun () -> Printf.sprintf "park! %s" (var_name v));
         poll = always;
         act = (fun _ -> Park_me v);
       })

let unpark _ctx v ~count =
  op
    {
      obj = v.vid;
      writes = true;
      descr = (fun () -> Printf.sprintf "unpark %s n=%d" (var_name v) count);
      poll = always;
      act =
        (fun _ ->
          let rec take n = function
            | [] -> ([], [])
            | rest when n = 0 -> ([], rest)
            | t :: rest ->
                let woken, left = take (n - 1) rest in
                (t :: woken, left)
          in
          let woken, left = take count v.parked in
          v.parked <- left;
          Wake (woken, List.length woken));
    }

let await _ctx v p =
  op
    {
      obj = v.vid;
      writes = false;
      descr = (fun () -> Printf.sprintf "await %s" (var_name v));
      poll = (fun () -> p v.value);
      act = (fun _ -> Resume v.value);
    }

(* ------------------------------------------------------------------ *)
(* Configuration and results                                           *)

type config = {
  preemption_bound : int option;
  max_schedules : int;
  max_steps : int;
  por : bool;
  shrink : bool;
}

let default_config =
  {
    preemption_bound = None;
    max_schedules = 200_000;
    max_steps = 10_000;
    por = true;
    shrink = true;
  }

type failure_kind = Assertion of string | Deadlock of string | Livelock

type failure = {
  kind : failure_kind;
  schedule : int list;
  trace : string list;
  preemptions : int;
}

type stats = {
  schedules : int;
  steps : int;
  sleep_cuts : int;
  bound_cuts : int;
  capped : bool;
  complete : bool;
}

type result = Pass of stats | Fail of failure * stats

(* ------------------------------------------------------------------ *)
(* One execution                                                       *)

type tstate =
  | Ready of pending * (int, unit) Effect.Deep.continuation
  | Parked of var * (int, unit) Effect.Deep.continuation
  | Running  (* transient, while its step executes *)
  | Done
  | Failed of string

type exec = {
  states : tstate array;
  mutable trace_rev : (int * pending) list;  (* stepped thread and op *)
  mutable nsteps : int;
  mutable any_failed : bool;  (* some thread is [Failed] *)
  mutable last : int option;  (* thread that took the previous step *)
  mutable preemptions : int;
  ctx : ctx;
}

let exn_text = function
  | Violation msg -> msg
  | e -> "exception: " ^ Printexc.to_string e

let set_failed ex i msg =
  ex.states.(i) <- Failed msg;
  ex.any_failed <- true

(* Start thread [i]: run its body until the first yield point (or
   completion), installing the handler that parks it at every yield. *)
let start ex i body =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> ex.states.(i) <- Done);
      exnc = (fun e -> set_failed ex i (exn_text e));
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Yield p ->
              Some
                (fun (k : (b, unit) continuation) ->
                  ex.states.(i) <- Ready (p, k))
          | _ -> None);
    }

let fresh_exec ~make ~threads =
  let ctx = { next_oid = 0; clock = 0; running = -1 } in
  let shared = make ctx in
  let n = List.length threads in
  if n = 0 || n > 62 then invalid_arg "Explore: need 1..62 threads";
  let ex =
    {
      states = Array.make n Done;
      trace_rev = [];
      nsteps = 0;
      any_failed = false;
      last = None;
      preemptions = 0;
      ctx;
    }
  in
  List.iteri
    (fun i body ->
      ctx.running <- i;
      start ex i (fun () -> body shared ctx))
    threads;
  (ex, shared)

let runnable ex t =
  match ex.states.(t) with Ready (p, _) -> p.poll () | _ -> false

let all_done ex =
  Array.for_all (fun s -> match s with Done -> true | _ -> false) ex.states

let failed ex =
  let n = Array.length ex.states in
  let rec go i =
    if i >= n then None
    else match ex.states.(i) with Failed m -> Some (i, m) | _ -> go (i + 1)
  in
  if ex.any_failed then go 0 else None

let resume ex t k v =
  ex.ctx.running <- t;
  Effect.Deep.continue k v

(* Execute one step of thread [t] (which must be runnable).  Woken
   threads are resumed immediately: their local code up to the next
   yield point runs as part of this step.  That, and sleep-set POR, are
   sound because code between yields touches no shared object except
   under a lock built from vars (e.g. a ring guarded by a futex mutex):
   every conflicting pair of such accesses is then ordered by dependent
   operations on the lock's word, so commuting independent steps never
   reorders them. *)
let do_step ex t =
  match ex.states.(t) with
  | Ready (p, k) ->
      let cost =
        match ex.last with
        | Some u when u <> t && runnable ex u -> 1
        | _ -> 0
      in
      ex.trace_rev <- (t, p) :: ex.trace_rev;
      ex.nsteps <- ex.nsteps + 1;
      ex.preemptions <- ex.preemptions + cost;
      ex.last <- Some t;
      ex.states.(t) <- Running;
      (match p.act t with
      | Resume v -> resume ex t k v
      | Park_me v ->
          v.parked <- v.parked @ [ t ];
          ex.states.(t) <- Parked (v, k)
      | Wake (woken, n) ->
          List.iter
            (fun w ->
              match ex.states.(w) with
              | Parked (_, kw) ->
                  ex.states.(w) <- Running;
                  resume ex w kw 0
              | _ -> assert false)
            woken;
          resume ex t k n)
  | _ -> assert false

(* Wrap a step so that a Violation raised by the op action itself (not
   inside the thread body) is charged to the stepped thread. *)
let do_step_safe ex t =
  try do_step ex t with Violation msg -> set_failed ex t msg

let blocked_report ex =
  let b = Buffer.create 64 in
  Array.iteri
    (fun i s ->
      match s with
      | Parked (v, _) ->
          Buffer.add_string b
            (Printf.sprintf " t%d parked on %s;" i (var_name v))
      | Ready (p, _) ->
          Buffer.add_string b
            (Printf.sprintf " t%d blocked at %s;" i (p.descr ()))
      | _ -> ())
    ex.states;
  Buffer.contents b

let mk_failure ex kind =
  {
    kind;
    schedule = List.rev_map fst ex.trace_rev;
    trace =
      List.rev_map
        (fun (t, p) -> Printf.sprintf "t%d: %s" t (p.descr ()))
        ex.trace_rev;
    preemptions = ex.preemptions;
  }

(* ------------------------------------------------------------------ *)
(* DFS with sleep sets and preemption bounding                         *)

(* A decision point on the current path.  [sleep] is a thread bitmask;
   it grows as sibling choices are explored.  [ops] snapshots each
   runnable thread's pending operation for the independence filter. *)
type node = {
  enabled : bool array;
  ops : (int * bool) option array;  (* (object, writes) *)
  node_last : int option;
  node_preempt : int;
  mutable sleep : int;
  mutable chosen : int;
}

let dependent (o1, w1) (o2, w2) = o1 = o2 && (w1 || w2)

(* Sleep set inherited by the child reached by choosing [t] at [n]:
   threads stay asleep only while independent operations run. *)
let child_sleep ~por n t =
  if not por then 0
  else
    match n.ops.(t) with
    | None -> 0
    | Some opt ->
        let s = ref 0 in
        Array.iteri
          (fun u opu ->
            if n.sleep land (1 lsl u) <> 0 then
              match opu with
              | Some opu when not (dependent opu opt) -> s := !s lor (1 lsl u)
              | _ -> ())
          n.ops;
        !s

(* Preemptions added by choosing [t] at [n]. *)
let cost n t =
  match n.node_last with
  | Some u when u <> t && n.enabled.(u) -> 1
  | _ -> 0

let awake n t = n.enabled.(t) && n.sleep land (1 lsl t) = 0

(* The next choice at a node, if any: continue the last-run thread
   (bias toward few preemptions), else the lowest-index candidate. *)
let next_choice ~bound n =
  let ok t =
    awake n t
    &&
    match bound with
    | None -> true
    | Some b -> n.node_preempt + cost n t <= b
  in
  match n.node_last with
  | Some u when ok u -> Some u
  | _ ->
      let nthreads = Array.length n.enabled in
      let rec first t =
        if t >= nthreads then None else if ok t then Some t else first (t + 1)
      in
      first 0

(* Was any runnable-but-unslept thread excluded purely by the bound? *)
let bound_limited ~bound n =
  match bound with
  | None -> false
  | Some b ->
      let rec any t =
        t < Array.length n.enabled
        && ((awake n t && n.node_preempt + cost n t > b) || any (t + 1))
      in
      any 0

type leaf =
  | Leaf_pass  (* all threads finished, final check ok *)
  | Leaf_sleep_cut
  | Leaf_bound_cut
  | Leaf_fail of failure

let explore cfg ~make ~threads ?final () =
  let bound = cfg.preemption_bound in
  let path : node list ref = ref [] (* deepest first *) in
  let schedules = ref 0 in
  let steps = ref 0 in
  let sleep_cuts = ref 0 in
  let bound_cuts = ref 0 in
  let capped = ref false in
  let first_failure = ref None in
  (* Execute one schedule: replay the decision path, then extend it
     depth-first until this run reaches a leaf. *)
  let run_one () =
    let ex, shared = fresh_exec ~make ~threads in
    incr schedules;
    let fail kind = Leaf_fail (mk_failure ex kind) in
    let check_failed () =
      match failed ex with
      | Some (_, msg) -> Some (fail (Assertion msg))
      | None -> None
    in
    (* Replay the existing prefix. *)
    let rec replay_nodes = function
      | [] -> None
      | (n : node) :: rest -> (
          do_step_safe ex n.chosen;
          match check_failed () with
          | Some leaf -> Some leaf
          | None -> replay_nodes rest)
    in
    (* Extend depth-first from the frontier. *)
    let rec extend sleep_here =
      match check_failed () with
      | Some leaf -> leaf
      | None ->
          if all_done ex then begin
            match final with
            | Some f -> (
                match f shared with
                | None -> Leaf_pass
                | Some msg -> fail (Assertion ("final state: " ^ msg)))
            | None -> Leaf_pass
          end
          else if ex.nsteps > cfg.max_steps then fail Livelock
          else begin
            let nthreads = Array.length ex.states in
            let n =
              {
                enabled = Array.init nthreads (fun t -> runnable ex t);
                ops =
                  Array.init nthreads (fun t ->
                      match ex.states.(t) with
                      | Ready (p, _) -> Some (p.obj, p.writes)
                      | _ -> None);
                node_last = ex.last;
                node_preempt = ex.preemptions;
                sleep = sleep_here;
                chosen = -1;
              }
            in
            if not (Array.exists (fun e -> e) n.enabled) then
              fail (Deadlock (blocked_report ex))
            else begin
              match next_choice ~bound n with
              | None ->
                  if bound_limited ~bound n then begin
                    incr bound_cuts;
                    Leaf_bound_cut
                  end
                  else begin
                    incr sleep_cuts;
                    Leaf_sleep_cut
                  end
              | Some t ->
                  n.chosen <- t;
                  path := n :: !path;
                  do_step_safe ex t;
                  extend (child_sleep ~por:cfg.por n t)
            end
          end
    in
    let leaf =
      match replay_nodes (List.rev !path) with
      | Some leaf -> leaf
      | None ->
          let sleep_frontier =
            match !path with
            | [] -> 0
            | n :: _ -> child_sleep ~por:cfg.por n n.chosen
          in
          extend sleep_frontier
    in
    steps := !steps + ex.nsteps;
    leaf
  in
  (* Move to the next unexplored branch; false when the tree is done. *)
  let rec backtrack () =
    match !path with
    | [] -> false
    | n :: rest -> (
        n.sleep <- n.sleep lor (1 lsl n.chosen);
        match next_choice ~bound n with
        | Some t ->
            n.chosen <- t;
            true
        | None ->
            if bound_limited ~bound n then incr bound_cuts;
            path := rest;
            backtrack ())
  in
  let rec loop () =
    if !schedules >= cfg.max_schedules then begin
      capped := true;
      None
    end
    else begin
      match run_one () with
      | Leaf_fail f ->
          first_failure := Some f;
          Some f
      | Leaf_pass | Leaf_sleep_cut | Leaf_bound_cut ->
          if backtrack () then loop () else None
    end
  in
  let failure = loop () in
  let stats =
    {
      schedules = !schedules;
      steps = !steps;
      sleep_cuts = !sleep_cuts;
      bound_cuts = !bound_cuts;
      capped = !capped;
      complete = not !capped;
    }
  in
  match failure with None -> Pass stats | Some f -> Fail (f, stats)

(* ------------------------------------------------------------------ *)
(* Shrinking: re-explore at increasing preemption bounds; the first
   failure found at the smallest bound is a minimal-preemption
   counterexample (its suffix past the failing step is already gone,
   since a failure ends its schedule). *)

let shrink_failure cfg ~make ~threads ?final (f : failure) =
  let rec try_bound b =
    if b >= f.preemptions then f
    else
      match
        explore
          { cfg with preemption_bound = Some b; shrink = false }
          ~make ~threads ?final ()
      with
      | Fail (f', _) -> f'
      | Pass _ -> try_bound (b + 1)
  in
  if f.preemptions = 0 then f else try_bound 0

let run ?(config = default_config) ~make ~threads ?final () =
  match explore config ~make ~threads ?final () with
  | Pass _ as r -> r
  | Fail (f, stats) ->
      let f =
        if config.shrink then shrink_failure config ~make ~threads ?final f
        else f
      in
      Fail (f, stats)

(* ------------------------------------------------------------------ *)
(* Deterministic replay of an explicit schedule                        *)

let replay ?(config = default_config) ~make ~threads ?final ~schedule () =
  let ex, shared = fresh_exec ~make ~threads in
  let rec go = function
    | [] -> (
        match failed ex with
        | Some (_, msg) -> Some (mk_failure ex (Assertion msg))
        | None ->
            if all_done ex then
              match final with
              | Some f -> (
                  match f shared with
                  | None -> None
                  | Some msg ->
                      Some (mk_failure ex (Assertion ("final state: " ^ msg))))
              | None -> None
            else if not (Array.exists (fun t -> t) (Array.init (Array.length ex.states) (runnable ex)))
                    && not (all_done ex)
            then Some (mk_failure ex (Deadlock (blocked_report ex)))
            else None)
    | t :: rest -> (
        match failed ex with
        | Some (_, msg) -> Some (mk_failure ex (Assertion msg))
        | None ->
            if ex.nsteps > config.max_steps then Some (mk_failure ex Livelock)
            else if t < 0 || t >= Array.length ex.states || not (runnable ex t)
            then
              Some
                (mk_failure ex
                   (Assertion (Printf.sprintf "replay diverged at t%d" t)))
            else begin
              do_step_safe ex t;
              go rest
            end)
  in
  go schedule

(* ------------------------------------------------------------------ *)
(* VC integration                                                      *)

let pp_kind = function
  | Assertion msg -> Printf.sprintf "assertion: %s" msg
  | Deadlock who -> Printf.sprintf "deadlock:%s" who
  | Livelock -> "livelock: per-schedule step budget exceeded"

let render_failure f =
  Printf.sprintf "%s under schedule [%s] (%d preemption%s): %s" (pp_kind f.kind)
    (String.concat ";" (List.map string_of_int f.schedule))
    f.preemptions
    (if f.preemptions = 1 then "" else "s")
    (String.concat " | " f.trace)

let capped_msg stats =
  Printf.sprintf
    "exploration capped at %d schedules (%d steps) — result is not a proof"
    stats.schedules stats.steps

let vc ~id ~category ?config ~make ~threads ?final () =
  Vc.make ~id ~category (fun () ->
      match run ?config ~make ~threads ?final () with
      | Pass stats when stats.complete -> Vc.Proved
      | Pass stats -> Vc.Capped (capped_msg stats)
      | Fail (f, _) -> Vc.Falsified (render_failure f))

let vc_catches ~id ~category ?config ?expect ~make ~threads ?final () =
  Vc.make ~id ~category (fun () ->
      match run ?config ~make ~threads ?final () with
      | Fail (f, _) -> (
          match expect with
          | Some p when not (p f) ->
              Vc.Falsified
                ("seeded bug caught, but not as expected: " ^ render_failure f)
          | _ -> Vc.Proved)
      | Pass stats when not stats.complete ->
          Vc.Capped ("seeded bug not found before cap: " ^ capped_msg stats)
      | Pass stats ->
          Vc.Falsified
            (Printf.sprintf
               "seeded bug NOT caught: %d schedules explored, all passed"
               stats.schedules))
