(* Self-checks for the Explore model checker: the checker is itself
   checked.  Every VC here either proves a property of the exploration
   machinery or plants a bug the explorer must catch. *)

let cat_engine = "mc/engine"
let cat_bound = "mc/bound"
let cat_mutation = "mutation"

(* ------------------------------------------------------------------ *)
(* Reference workloads *)

(* Two threads doing a non-atomic increment: the canonical 1-preemption
   lost update. *)
let lu_make ctx = Explore.var ctx ~name:"c" 0

let lu_body v ctx =
  let tmp = Explore.read ctx v in
  Explore.write ctx v (tmp + 1)

let lu_threads = [ lu_body; lu_body ]

let lu_final v =
  if Explore.peek v = 2 then None
  else Some (Printf.sprintf "counter = %d, want 2" (Explore.peek v))

let lu_assertion (f : Explore.failure) =
  match f.Explore.kind with Explore.Assertion _ -> true | _ -> false

(* 3 threads x 4 steps for the POR-vs-naive comparison: each thread does
   three writes to a private cell then one to a shared cell, so the
   threads are almost independent (POR collapses the private prefixes)
   but not entirely (the shared tail keeps the comparison honest). *)
let por_make ctx =
  (Array.init 3 (fun i -> Explore.var ctx ~name:(Printf.sprintf "p%d" i) 0),
   Explore.var ctx ~name:"shared" 0)

let por_thread i (priv, shared) ctx =
  Explore.write ctx priv.(i) 1;
  Explore.write ctx priv.(i) 2;
  Explore.write ctx priv.(i) 3;
  ignore (Explore.update ctx shared (fun x -> x + 1))

let por_threads = [ por_thread 0; por_thread 1; por_thread 2 ]

let por_final (priv, shared) =
  if
    Explore.peek shared = 3
    && Array.for_all (fun v -> Explore.peek v = 3) priv
  then None
  else Some "final state corrupted"

(* The multinomial as a product of binomials: thread k's steps choose
   their positions among the first l1 + ... + lk. *)
let count_merges lens =
  let choose n k =
    let k = min k (n - k) in
    let num = ref 1 and den = ref 1 in
    for i = 1 to k do
      num := !num * (n - k + i);
      den := !den * i
    done;
    !num / !den
  in
  let consumed = ref 0 in
  List.fold_left
    (fun acc l ->
      consumed := !consumed + l;
      acc * choose !consumed l)
    1 lens

(* The naive merge count of the 3 x 4 workload. *)
let por_naive_merges () = count_merges [ 4; 4; 4 ]

let por_ratio () =
  match Explore.run ~make:por_make ~threads:por_threads ~final:por_final () with
  | Explore.Pass stats when stats.Explore.complete ->
      (stats.Explore.schedules, por_naive_merges ())
  | Explore.Pass _ -> invalid_arg "por_ratio: exploration capped"
  | Explore.Fail _ -> invalid_arg "por_ratio: reference workload failed"

(* The same workload with POR off: every interleaving runs once. *)
let full_space () =
  match
    Explore.run
      ~config:{ Explore.default_config with por = false; shrink = false }
      ~make:por_make ~threads:por_threads ~final:por_final ()
  with
  | Explore.Pass stats when stats.Explore.complete -> stats
  | Explore.Pass _ -> invalid_arg "full_space: exploration capped"
  | Explore.Fail _ -> invalid_arg "full_space: reference workload failed"

(* ------------------------------------------------------------------ *)
(* VCs *)

let vc_por_beats_naive =
  Vc.make ~id:"mc/por/beats-naive-3x4" ~category:cat_engine (fun () ->
      let explored, naive = por_ratio () in
      if explored < naive then Vc.Proved
      else
        Vc.Falsified
          (Printf.sprintf "POR explored %d >= naive %d merges" explored naive))

let vc_deterministic =
  Vc.make ~id:"mc/engine/deterministic" ~category:cat_engine (fun () ->
      let go () =
        Explore.run ~make:lu_make ~threads:lu_threads ~final:lu_final ()
      in
      match (go (), go ()) with
      | Explore.Fail (f1, s1), Explore.Fail (f2, s2)
        when f1.Explore.schedule = f2.Explore.schedule
             && s1.Explore.schedules = s2.Explore.schedules ->
          Vc.Proved
      | Explore.Fail _, Explore.Fail _ ->
          Vc.Falsified "two runs found different counterexamples"
      | _ -> Vc.Falsified "lost update not found")

let vc_replay_reproduces =
  Vc.make ~id:"mc/engine/replay-reproduces" ~category:cat_engine (fun () ->
      match Explore.run ~make:lu_make ~threads:lu_threads ~final:lu_final () with
      | Explore.Fail (f, _) -> (
          match
            Explore.replay ~make:lu_make ~threads:lu_threads ~final:lu_final
              ~schedule:f.Explore.schedule ()
          with
          | Some f' when lu_assertion f' -> Vc.Proved
          | Some _ -> Vc.Falsified "replay failed with a different kind"
          | None -> Vc.Falsified "failing schedule passed on replay")
      | Explore.Pass _ -> Vc.Falsified "lost update not found")

let vc_shrink_minimal =
  Vc.make ~id:"mc/engine/shrink-minimal" ~category:cat_engine (fun () ->
      (* A lost update needs exactly one preemption; shrinking must
         deliver a schedule with exactly one. *)
      match Explore.run ~make:lu_make ~threads:lu_threads ~final:lu_final () with
      | Explore.Fail (f, _) when f.Explore.preemptions = 1 -> Vc.Proved
      | Explore.Fail (f, _) ->
          Vc.Falsified
            (Printf.sprintf "shrunk schedule has %d preemptions, want 1"
               f.Explore.preemptions)
      | Explore.Pass _ -> Vc.Falsified "lost update not found")

let vc_abba_deadlock =
  let make ctx =
    (Explore.lock ctx ~name:"A" (), Explore.lock ctx ~name:"B" ())
  in
  let t_ab (a, b) ctx =
    Explore.acquire ctx a;
    Explore.acquire ctx b;
    Explore.release ctx b;
    Explore.release ctx a
  in
  let t_ba (a, b) ctx =
    Explore.acquire ctx b;
    Explore.acquire ctx a;
    Explore.release ctx a;
    Explore.release ctx b
  in
  Explore.vc_catches ~id:"mc/engine/abba-deadlock" ~category:cat_engine
    ~expect:(fun f ->
      match f.Explore.kind with Explore.Deadlock _ -> true | _ -> false)
    ~make ~threads:[ t_ab; t_ba ] ()

let vc_bound1_finds =
  Explore.vc_catches ~id:"mc/bound/one-preemption-finds" ~category:cat_bound
    ~config:{ Explore.default_config with preemption_bound = Some 1 }
    ~expect:lu_assertion ~make:lu_make ~threads:lu_threads ~final:lu_final ()

let vc_bound0_misses =
  (* CHESS semantics: with zero preemptions each thread runs to its next
     blocking point uninterrupted, so the 1-preemption lost update is
     invisible — the bounded search must pass. *)
  Explore.vc ~id:"mc/bound/zero-misses" ~category:cat_bound
    ~config:{ Explore.default_config with preemption_bound = Some 0 }
    ~make:lu_make ~threads:lu_threads ~final:lu_final ()

let vc_por_sound =
  Vc.make ~id:"mc/por/sound-vs-full" ~category:cat_engine (fun () ->
      (* Sleep sets prune schedules, never verdicts: with and without POR
         the explorer must agree on both a failing and a passing
         workload, and POR must not explore more.  The full run visits
         every naive merge. *)
      let run ~por ~make ~threads ~final =
        Explore.run
          ~config:{ Explore.default_config with por; shrink = false }
          ~make ~threads ~final ()
      in
      let fail_agrees =
        match
          ( run ~por:true ~make:lu_make ~threads:lu_threads ~final:lu_final,
            run ~por:false ~make:lu_make ~threads:lu_threads ~final:lu_final )
        with
        | Explore.Fail _, Explore.Fail _ -> true
        | _ -> false
      in
      let pass_agrees =
        match
          run ~por:true ~make:por_make ~threads:por_threads ~final:por_final
        with
        | Explore.Pass s1 ->
            let full = (full_space ()).Explore.schedules in
            s1.Explore.schedules <= full && full = por_naive_merges ()
        | Explore.Fail _ -> false
      in
      if fail_agrees && pass_agrees then Vc.Proved
      else
        Vc.Falsified
          (Printf.sprintf "por/full disagree: fail %b pass %b" fail_agrees
             pass_agrees))

let vc_livelock_guard =
  (* An unbounded value spin (forbidden by the spin discipline) must be
     reported as a livelock, not hang the checker. *)
  let make ctx = Explore.var ctx ~name:"flag" 0 in
  let spinner v ctx =
    let rec loop () = if Explore.read ctx v = 0 then loop () in
    loop ()
  in
  Explore.vc_catches ~id:"mc/engine/livelock-guard" ~category:cat_engine
    ~config:{ Explore.default_config with max_steps = 200 }
    ~expect:(fun f -> f.Explore.kind = Explore.Livelock)
    ~make ~threads:[ spinner ] ()

let vc_capped_visible =
  Vc.make ~id:"mc/engine/capped-visible" ~category:cat_engine (fun () ->
      (* Hitting max_schedules must surface as an incomplete result (and
         hence Vc.Capped through Explore.vc), never as a silent pass. *)
      match
        Explore.run
          ~config:{ Explore.default_config with max_schedules = 3 }
          ~make:por_make ~threads:por_threads ~final:por_final ()
      with
      | Explore.Pass stats
        when stats.Explore.capped && not stats.Explore.complete ->
          Vc.Proved
      | Explore.Pass _ -> Vc.Falsified "cap at 3 schedules not reported"
      | Explore.Fail _ -> Vc.Falsified "reference workload failed")

(* ------------------------------------------------------------------ *)
(* Dekker-style flags: safe under sequential consistency, broken by a
   store buffer.  The missing-fence mutation is modeled as the program
   transformation a store buffer permits: each thread's read drifts
   ahead of its own flag write. *)

type dekker = { f0 : Explore.var; f1 : Explore.var; r0 : int ref; r1 : int ref }

let dekker_make ctx =
  {
    f0 = Explore.var ctx ~name:"f0" 0;
    f1 = Explore.var ctx ~name:"f1" 0;
    r0 = ref (-1);
    r1 = ref (-1);
  }

let dekker_final d =
  if !(d.r0) = 0 && !(d.r1) = 0 then
    Some "both threads read 0: store-to-load order violated"
  else None

let vc_flags_sc_safe =
  let t0 d ctx =
    Explore.write ctx d.f0 1;
    d.r0 := Explore.read ctx d.f1
  in
  let t1 d ctx =
    Explore.write ctx d.f1 1;
    d.r1 := Explore.read ctx d.f0
  in
  Explore.vc ~id:"mc/engine/flags-sc-safe" ~category:cat_engine
    ~make:dekker_make ~threads:[ t0; t1 ] ~final:dekker_final ()

let vc_mutation_store_buffer =
  let t0 d ctx =
    d.r0 := Explore.read ctx d.f1;
    Explore.write ctx d.f0 1
  in
  let t1 d ctx =
    d.r1 := Explore.read ctx d.f0;
    Explore.write ctx d.f1 1
  in
  Explore.vc_catches ~id:"mc/mutation/store-buffer-reorder"
    ~category:cat_mutation ~expect:lu_assertion ~make:dekker_make
    ~threads:[ t0; t1 ] ~final:dekker_final ()

let vcs () =
  [
    vc_por_beats_naive;
    vc_deterministic;
    vc_replay_reproduces;
    vc_shrink_minimal;
    vc_abba_deadlock;
    vc_bound1_finds;
    vc_bound0_misses;
    vc_por_sound;
    vc_livelock_guard;
    vc_capped_visible;
    vc_flags_sc_safe;
    vc_mutation_store_buffer;
  ]
