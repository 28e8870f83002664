(* NR's concurrent building blocks on the model checker.  The models
   mirror the real code's atomicity: Log.append reserves its slot by CAS
   before publishing (the PR-1 fix — the seeded mutation below is the
   pre-fix blind fetch-and-add), the rwlock is a CAS-spun word, and the
   flat-combining replica publishes requests in per-thread slots that a
   single combiner batches and answers.  Histories collected from every
   explored schedule are checked against the sequential counter with the
   Wing & Gold linearizability checker. *)

module E = Bi_core.Explore
module Vc = Bi_core.Vc

let cat = "mc/nr"
let cat_mutation = "mutation"
let bounded = { E.default_config with E.preemption_bound = Some 2 }

(* ------------------------------------------------------------------ *)
(* Log append: CAS-reserve before publish *)

type log_state = {
  tail : E.var;
  slots : E.var array;
  cap : int;
  ok : bool array;  (* per-thread append outcome, reset by make *)
}

let log_make ~cap nthreads ctx =
  {
    tail = E.var ctx ~name:"tail" 0;
    slots = Array.init cap (fun i -> E.var ctx ~name:(Printf.sprintf "slot%d" i) 0);
    cap;
    ok = Array.make nthreads false;
  }

let log_append ctx st v =
  let rec loop () =
    let t = E.read ctx st.tail in
    if t >= st.cap then false
    else if E.cas ctx st.tail ~expect:t ~set:(t + 1) then begin
      E.write ctx st.slots.(t) v;
      true
    end
    else loop () (* CAS-retry: bounded by other appenders' progress *)
  in
  loop ()

let vc_log_no_lost_slots =
  (* Two concurrent appends into a roomy log: both must land, in
     distinct slots, with the tail counting exactly them. *)
  E.vc ~id:"mc/nr/log/no-lost-slots" ~category:cat
    ~make:(log_make ~cap:3 2)
    ~threads:
      [
        (fun st ctx -> st.ok.(0) <- log_append ctx st 1);
        (fun st ctx -> st.ok.(1) <- log_append ctx st 2);
      ]
    ~final:(fun st ->
      let s0 = E.peek st.slots.(0) and s1 = E.peek st.slots.(1) in
      if
        E.peek st.tail = 2
        && st.ok.(0) && st.ok.(1)
        && ((s0 = 1 && s1 = 2) || (s0 = 2 && s1 = 1))
        && E.peek st.slots.(2) = 0
      then None
      else
        Some
          (Printf.sprintf "tail=%d slots=[%d;%d;%d]" (E.peek st.tail) s0 s1
             (E.peek st.slots.(2))))
    ()

let vc_log_capacity =
  (* A full log refuses the overflowing append and the tail never moves
     past capacity — the exact property the blind-FAA bug broke. *)
  E.vc ~id:"mc/nr/log/capacity-respected" ~category:cat
    ~make:(log_make ~cap:1 2)
    ~threads:
      [
        (fun st ctx -> st.ok.(0) <- log_append ctx st 1);
        (fun st ctx -> st.ok.(1) <- log_append ctx st 2);
      ]
    ~final:(fun st ->
      let wins = (if st.ok.(0) then 1 else 0) + if st.ok.(1) then 1 else 0 in
      if E.peek st.tail = 1 && wins = 1 && E.peek st.slots.(0) <> 0 then None
      else
        Some
          (Printf.sprintf "tail=%d wins=%d slot0=%d" (E.peek st.tail) wins
             (E.peek st.slots.(0))))
    ()

let vc_mutation_log_blind_faa =
  (* The seeded bug: fetch-and-add first, check capacity after.  Losing
     appenders have already moved the tail past slots nobody will ever
     write. *)
  let broken_append ctx st v =
    let t = E.update ctx st.tail (fun t -> t + 1) in
    if t >= st.cap then false
    else begin
      E.write ctx st.slots.(t) v;
      true
    end
  in
  E.vc_catches ~id:"mc/mutation/log-blind-faa" ~category:cat_mutation
    ~expect:(fun f ->
      match f.E.kind with E.Assertion _ -> true | _ -> false)
    ~make:(log_make ~cap:1 2)
    ~threads:
      [
        (fun st ctx -> st.ok.(0) <- broken_append ctx st 1);
        (fun st ctx -> st.ok.(1) <- broken_append ctx st 2);
      ]
    ~final:(fun st ->
      if E.peek st.tail <= st.cap then None
      else
        Some
          (Printf.sprintf "tail %d ran past capacity %d" (E.peek st.tail)
             st.cap))
    ()

(* ------------------------------------------------------------------ *)
(* Rwlock word: >= 0 readers, -1 writer, CAS-spun like the real one *)

let rw_write_lock ctx l =
  let rec loop () =
    if not (E.cas ctx l ~expect:0 ~set:(-1)) then begin
      ignore (E.await ctx l (fun v -> v = 0));
      loop ()
    end
  in
  loop ()

let rw_write_unlock ctx l =
  let v = E.update ctx l (fun _ -> 0) in
  E.check ctx (v = -1) "write_unlock without writer"

let rw_read_lock ctx l =
  let rec loop () =
    let v = E.await ctx l (fun v -> v >= 0) in
    if not (E.cas ctx l ~expect:v ~set:(v + 1)) then loop ()
  in
  loop ()

let rw_read_unlock ctx l =
  let v = E.update ctx l (fun v -> v - 1) in
  E.check ctx (v >= 1) "read_unlock without readers"

type rw_state = { l : E.var; occ : E.var }

let rw_make ctx =
  { l = E.var ctx ~name:"rw" 0; occ = E.var ctx ~name:"occ" 0 }

let rw_reader st ctx =
  rw_read_lock ctx st.l;
  let o = E.update ctx st.occ (fun o -> o + 1) in
  E.check ctx (o < 100) "reader overlaps a writer";
  ignore (E.update ctx st.occ (fun o -> o - 1));
  rw_read_unlock ctx st.l

let rw_writer st ctx =
  rw_write_lock ctx st.l;
  let o = E.update ctx st.occ (fun o -> o + 100) in
  E.check ctx (o = 0) "writer overlaps readers or another writer";
  ignore (E.update ctx st.occ (fun o -> o - 100));
  rw_write_unlock ctx st.l

let rw_final st =
  if E.peek st.l = 0 then None
  else Some (Printf.sprintf "rwlock left in state %d" (E.peek st.l))

let vc_rw_write_excludes =
  E.vc ~id:"mc/nr/rwlock/write-excludes" ~category:cat ~config:bounded
    ~make:rw_make
    ~threads:[ rw_writer; rw_reader; rw_reader ]
    ~final:rw_final ()

let vc_rw_two_writers =
  E.vc ~id:"mc/nr/rwlock/two-writers-exclude" ~category:cat ~make:rw_make
    ~threads:[ rw_writer; rw_writer ] ~final:rw_final ()

let vc_mutation_rw_nonatomic_release =
  (* The seeded bug: a release that loads then stores in two steps.  Two
     readers releasing concurrently lose one decrement and the lock
     never drains. *)
  let broken_read_unlock ctx l =
    let v = E.read ctx l in
    E.write ctx l (v - 1)
  in
  let reader st ctx =
    rw_read_lock ctx st.l;
    broken_read_unlock ctx st.l
  in
  E.vc_catches ~id:"mc/mutation/rwlock-nonatomic-release"
    ~category:cat_mutation
    ~expect:(fun f ->
      match f.E.kind with E.Assertion _ -> true | _ -> false)
    ~make:rw_make
    ~threads:[ reader; reader ]
    ~final:rw_final ()

(* ------------------------------------------------------------------ *)
(* Flat-combining counter replica, linearizability-checked *)

module Lin = Counter.Lin

type fc_state = {
  req : E.var array;  (* 0 = empty, 1 = increment requested *)
  resp : E.var array;  (* 0 = empty, else result + 1 *)
  combiner : E.var;
  value : E.var;
  calls : Lin.call list ref;  (* plain ref: reset with each make *)
}

let fc_make n ctx =
  {
    req = Array.init n (fun i -> E.var ctx ~name:(Printf.sprintf "req%d" i) 0);
    resp = Array.init n (fun i -> E.var ctx ~name:(Printf.sprintf "resp%d" i) 0);
    combiner = E.var ctx ~name:"combiner" 0;
    value = E.var ctx ~name:"value" 0;
    calls = ref [];
  }

(* Serve every published request: bump the replica, answer the slot. *)
let fc_combine ctx st =
  Array.iteri
    (fun j rq ->
      let o = E.update ctx rq (fun _ -> 0) in
      if o <> 0 then begin
        let v = E.read ctx st.value in
        E.write ctx st.value (v + 1);
        E.write ctx st.resp.(j) (v + 1 + 1)
      end)
    st.req

let fc_incr st ctx =
  let i = E.self ctx in
  let inv = E.now ctx in
  E.write ctx st.req.(i) 1;
  let rec wait () =
    let r = E.update ctx st.resp.(i) (fun _ -> 0) in
    if r <> 0 then r - 1
    else if E.cas ctx st.combiner ~expect:0 ~set:1 then begin
      fc_combine ctx st;
      ignore (E.update ctx st.combiner (fun _ -> 0));
      wait ()
    end
    else begin
      (* Someone else holds the combiner lock; it will either answer us
         or release, letting the next iteration combine. *)
      ignore (E.await ctx st.combiner (fun v -> v = 0));
      wait ()
    end
  in
  let ret = wait () in
  let res = E.now ctx in
  st.calls := { Lin.proc = i; op = Counter.Incr; ret; inv; res } :: !(st.calls)

(* The lock-free read path: a single atomic load of the replica is the
   linearization point. *)
let fc_read st ctx =
  let i = E.self ctx in
  let inv = E.now ctx in
  let v = E.read ctx st.value in
  let res = E.now ctx in
  st.calls := { Lin.proc = i; op = Counter.Read; ret = v; inv; res } :: !(st.calls)

let fc_lin_final st =
  match Lin.counterexample ~init:0 !(st.calls) with
  | None -> None
  | Some msg -> Some ("history not linearizable: " ^ msg)

let vc_fc_linearizable_2t =
  E.vc ~id:"mc/nr/fc/linearizable-2t" ~category:cat ~make:(fc_make 2)
    ~threads:[ fc_incr; fc_incr ] ~final:fc_lin_final ()

let vc_fc_responses_exact =
  (* Stronger than linearizability for two increments: the responses
     must be exactly {1, 2} — no duplicated or skipped counter value. *)
  E.vc ~id:"mc/nr/fc/responses-exact" ~category:cat ~make:(fc_make 2)
    ~threads:[ fc_incr; fc_incr ]
    ~final:(fun st ->
      let rets =
        List.sort compare (List.map (fun c -> c.Lin.ret) !(st.calls))
      in
      if rets = [ 1; 2 ] && E.peek st.value = 2 then None
      else
        Some
          (Printf.sprintf "returns [%s], value %d"
             (String.concat ";" (List.map string_of_int rets))
             (E.peek st.value)))
    ()

let vc_fc_linearizable_3t =
  E.vc ~id:"mc/nr/fc/linearizable-3t-bound2" ~category:cat ~config:bounded
    ~make:(fc_make 3)
    ~threads:[ fc_incr; fc_incr; fc_incr ]
    ~final:fc_lin_final ()

let vc_fc_with_reader =
  E.vc ~id:"mc/nr/fc/reader-linearizes" ~category:cat ~config:bounded
    ~make:(fc_make 3)
    ~threads:[ fc_incr; fc_incr; fc_read ]
    ~final:fc_lin_final ()

let vcs () =
  [
    vc_log_no_lost_slots;
    vc_log_capacity;
    vc_mutation_log_blind_faa;
    vc_rw_write_excludes;
    vc_rw_two_writers;
    vc_mutation_rw_nonatomic_release;
    vc_fc_linearizable_2t;
    vc_fc_responses_exact;
    vc_fc_linearizable_3t;
    vc_fc_with_reader;
  ]
