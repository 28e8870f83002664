(* Tests for the verification framework itself: the framework must catch
   bugs, not just bless correct code, so several tests plant defects and
   require detection. *)

module Gen = Bi_core.Gen
module Stats = Bi_core.Stats
module Vc = Bi_core.Vc
module Pool = Bi_core.Pool
module Verifier = Bi_core.Verifier
module Contract = Bi_core.Contract
module Interleave = Bi_core.Interleave
module Explore = Bi_core.Explore

let check = Alcotest.check
let qtest name count gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

(* ------------------------------------------------------------------ *)
(* Gen *)

let test_gen_deterministic () =
  let a = Gen.create 42L and b = Gen.create 42L in
  let xs = Gen.sample a 32 Gen.next64 and ys = Gen.sample b 32 Gen.next64 in
  check (Alcotest.list Alcotest.int64) "same seed, same stream" xs ys

let test_gen_of_string_distinct () =
  let a = Gen.of_string "vc/1" and b = Gen.of_string "vc/2" in
  check Alcotest.bool "different ids diverge" true (Gen.next64 a <> Gen.next64 b)

let test_gen_int_bounds () =
  let g = Gen.create 7L in
  for _ = 1 to 1000 do
    let v = Gen.int g 13 in
    if v < 0 || v >= 13 then Alcotest.fail "Gen.int out of bounds"
  done

let test_gen_int_in () =
  let g = Gen.create 9L in
  for _ = 1 to 1000 do
    let v = Gen.int_in g (-5) 5 in
    if v < -5 || v > 5 then Alcotest.fail "Gen.int_in out of bounds"
  done

let test_gen_shuffle_permutation () =
  let g = Gen.create 11L in
  let xs = [ 1; 2; 3; 4; 5; 6; 7 ] in
  let ys = Gen.shuffle g xs in
  check
    (Alcotest.list Alcotest.int)
    "same multiset" (List.sort compare xs) (List.sort compare ys)

let test_gen_oneof_member () =
  let g = Gen.create 13L in
  for _ = 1 to 100 do
    let v = Gen.oneof g [ "a"; "b"; "c" ] in
    if not (List.mem v [ "a"; "b"; "c" ]) then Alcotest.fail "oneof outside"
  done

let test_gen_bits_mask () =
  let g = Gen.create 17L in
  for _ = 1 to 200 do
    let v = Gen.bits g 12 in
    if Int64.logand v (Int64.lognot 0xFFFL) <> 0L then
      Alcotest.fail "bits above mask"
  done

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean () =
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  check (Alcotest.float 1e-9) "empty mean" 0. (Stats.mean [])

let test_stats_percentile () =
  let xs = [ 5.; 1.; 4.; 2.; 3. ] in
  check (Alcotest.float 1e-9) "p50" 3. (Stats.percentile 0.5 xs);
  check (Alcotest.float 1e-9) "p100" 5. (Stats.percentile 1.0 xs);
  check (Alcotest.float 1e-9) "p0+" 1. (Stats.percentile 0.01 xs)

let test_stats_cdf () =
  let points = Stats.cdf [ 3.; 1.; 2.; 2. ] in
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) (Alcotest.float 1e-9)))
    "cdf points"
    [ (1., 0.25); (2., 0.75); (3., 1.0) ]
    points

let test_stats_histogram () =
  let h = Stats.histogram ~bins:2 [ 0.; 1.; 9.; 10. ] in
  check Alcotest.int "two bins" 2 (List.length h);
  check Alcotest.int "total count" 4
    (List.fold_left (fun a (_, c) -> a + c) 0 h)

let test_stats_percentile_extremes () =
  let xs = [ 2.; 1.; 3. ] in
  (* p = 0 rounds the nearest-rank index down to the minimum... *)
  check (Alcotest.float 1e-9) "p=0 is min" 1. (Stats.percentile 0. xs);
  (* ...and p = 1 selects the maximum. *)
  check (Alcotest.float 1e-9) "p=1 is max" 3. (Stats.percentile 1.0 xs);
  check (Alcotest.float 1e-9) "singleton" 4. (Stats.percentile 0.7 [ 4. ]);
  match Stats.percentile 0.5 [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty list must raise"

let test_stats_percentile_duplicates () =
  let xs = [ 5.; 5.; 5.; 5. ] in
  List.iter
    (fun p ->
      check (Alcotest.float 1e-9) "all-equal data" 5. (Stats.percentile p xs))
    [ 0.; 0.25; 0.5; 0.99; 1.0 ]

let test_stats_cdf_duplicates () =
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) (Alcotest.float 1e-9)))
    "all duplicates collapse to one point"
    [ (2., 1.0) ]
    (Stats.cdf [ 2.; 2.; 2. ])

let test_stats_histogram_degenerate () =
  (* hi = lo: all mass must land in the first bin and none may be lost. *)
  let h = Stats.histogram ~bins:3 [ 5.; 5.; 5. ] in
  check Alcotest.int "three bins" 3 (List.length h);
  check Alcotest.int "total count preserved" 3
    (List.fold_left (fun a (_, c) -> a + c) 0 h);
  (match h with
  | (_, c) :: _ -> check Alcotest.int "all in first bin" 3 c
  | [] -> Alcotest.fail "bins expected");
  let single = Stats.histogram ~bins:1 [ 1.; 2.; 3. ] in
  check Alcotest.int "one bin holds everything" 3
    (List.fold_left (fun a (_, c) -> a + c) 0 single);
  check Alcotest.int "empty data, no bins" 0
    (List.length (Stats.histogram ~bins:4 []))

let prop_cdf_monotone =
  qtest "cdf is monotone" 200
    QCheck2.Gen.(list_size (int_range 1 50) (float_range 0. 100.))
    (fun xs ->
      let points = Stats.cdf xs in
      let rec mono = function
        | (x1, f1) :: ((x2, f2) :: _ as rest) ->
            x1 < x2 && f1 < f2 && mono rest
        | _ -> true
      in
      mono points
      &&
      match List.rev points with
      | (_, f) :: _ -> abs_float (f -. 1.0) < 1e-9
      | [] -> xs = [])

let prop_percentile_member =
  qtest "percentile returns a data point" 200
    QCheck2.Gen.(
      pair (list_size (int_range 1 30) (float_range 0. 10.)) (float_range 0.01 1.0))
    (fun (xs, p) -> List.mem (Stats.percentile p xs) xs)

(* ------------------------------------------------------------------ *)
(* Reservoir sketch *)

module Rsv = Stats.Reservoir

let test_reservoir_exact_below_capacity () =
  (* Below capacity nothing is ever evicted, so the sketch must agree
     with the exact percentile bit-for-bit, same nearest-rank formula. *)
  let g = Gen.create 31L in
  let xs = List.init 500 (fun _ -> float_of_int (Gen.int g 10_000)) in
  let r = Rsv.create ~capacity:1024 ~seed:1L () in
  List.iter (Rsv.add r) xs;
  List.iter
    (fun p ->
      check (Alcotest.float 0.) "sketch = exact" (Stats.percentile p xs)
        (Rsv.percentile p r))
    [ 0.; 0.25; 0.5; 0.9; 0.99; 1.0 ];
  check Alcotest.int "count" 500 (Rsv.count r);
  check Alcotest.int "stored" 500 (Rsv.stored r)

let test_reservoir_bounded_error_large_stream () =
  (* A seeded uniform stream: the true p-quantile of Uniform[0,1) is p
     itself; the 4096-sample sketch of a 200k stream must land close. *)
  let r = Rsv.create ~capacity:4096 ~seed:7L () in
  let g = Gen.create 8L in
  for _ = 1 to 200_000 do
    Rsv.add r (Int64.to_float (Gen.bits g 53) /. 9007199254740992.0)
  done;
  check Alcotest.int "count sees everything" 200_000 (Rsv.count r);
  check Alcotest.int "memory bounded" 4096 (Rsv.stored r);
  check Alcotest.bool "p50 within 3e-2" true
    (Float.abs (Rsv.percentile 0.5 r -. 0.5) < 0.03);
  check Alcotest.bool "p99 within 1e-2" true
    (Float.abs (Rsv.percentile 0.99 r -. 0.99) < 0.01);
  check Alcotest.bool "exact extremes tracked" true
    (Rsv.min_seen r >= 0. && Rsv.max_seen r < 1. && Rsv.mean r > 0.45
   && Rsv.mean r < 0.55)

let test_reservoir_edge_cases () =
  (match Rsv.create ~capacity:0 ~seed:1L () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must raise");
  let r = Rsv.create ~capacity:4 ~seed:1L () in
  (match Rsv.percentile 0.5 r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty reservoir must raise");
  Rsv.add r 42.;
  List.iter
    (fun p ->
      check (Alcotest.float 0.) "single sample" 42. (Rsv.percentile p r))
    [ 0.; 0.5; 1.0 ];
  for _ = 1 to 100 do
    Rsv.add r 7.
  done;
  check (Alcotest.float 0.) "all-equal p999" 7. (Rsv.percentile 0.999 r);
  check Alcotest.int "stored at cap" 4 (Rsv.stored r);
  check Alcotest.int "count past cap" 101 (Rsv.count r)

let test_reservoir_deterministic () =
  let fill ~res_seed ~stream_seed =
    let r = Rsv.create ~capacity:64 ~seed:res_seed () in
    let g = Gen.create stream_seed in
    for _ = 1 to 5000 do
      Rsv.add r (float_of_int (Gen.int g 1_000_000))
    done;
    Rsv.to_list r
  in
  check Alcotest.bool "same seeds, same sample" true
    (fill ~res_seed:3L ~stream_seed:9L = fill ~res_seed:3L ~stream_seed:9L);
  check Alcotest.bool "different reservoir seed, different sample" true
    (fill ~res_seed:3L ~stream_seed:9L <> fill ~res_seed:4L ~stream_seed:9L)

(* ------------------------------------------------------------------ *)
(* Vc and Verifier *)

let test_vc_prop_proved () =
  let vc = Vc.prop ~id:"t" ~category:"c" (fun () -> true) in
  check Alcotest.bool "proved" true (Vc.catch vc.Vc.check = Vc.Proved)

let test_vc_prop_falsified () =
  let vc = Vc.prop ~id:"t" ~category:"c" (fun () -> false) in
  check Alcotest.bool "falsified" true (Vc.catch vc.Vc.check <> Vc.Proved)

let test_vc_catch_exception () =
  let vc = Vc.make ~id:"t" ~category:"c" (fun () -> failwith "boom") in
  match Vc.catch vc.Vc.check with
  | Vc.Falsified msg ->
      check Alcotest.bool "mentions exception" true
        (String.length msg > 0)
  | Vc.Proved | Vc.Timeout _ | Vc.Capped _ ->
      Alcotest.fail "exception must falsify"

let test_vc_forall_range () =
  check Alcotest.bool "all in range" true
    (Vc.forall_range ~lo:0 ~hi:10 (fun i -> i <= 10) ());
  check Alcotest.bool "finds violation" false
    (Vc.forall_range ~lo:0 ~hi:10 (fun i -> i < 10) ())

let test_vc_forall_pairs () =
  check Alcotest.bool "pairs" true
    (Vc.forall_pairs [ 1; 2 ] [ 3; 4 ] (fun a b -> a < b) ())

let test_vc_forall_pairs_timeout () =
  (* Regression: the pair loop only polled the deadline once per outer
     element, so a slow predicate over a long inner list blew straight
     through its budget.  The checkpoint now fires inside the inner
     loop. *)
  let slow _ _ =
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 0.002 do
      ()
    done;
    true
  in
  let xs = [ 1 ] and ys = List.init 1000 Fun.id in
  let vc =
    Vc.make ~id:"slow-pairs" ~category:"t" (fun () ->
        Vc.outcome_of_bool (Vc.forall_pairs xs ys slow ()))
  in
  let t0 = Unix.gettimeofday () in
  let outcome =
    Vc.with_budget ~budget_s:0.05 (fun () -> Vc.catch vc.Vc.check)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match outcome with
  | Vc.Timeout _ -> ()
  | o -> Alcotest.failf "expected Timeout, got %a" Vc.pp_outcome o);
  (* One uninterrupted sweep would need ~2 s; the checkpoint must cut
     it off close to the 50 ms budget. *)
  check Alcotest.bool "interrupted promptly" true (elapsed < 1.0)

let test_verifier_reports () =
  let vcs =
    [
      Vc.prop ~id:"ok" ~category:"a" (fun () -> true);
      Vc.prop ~id:"bad" ~category:"b" (fun () -> false);
    ]
  in
  let rep = Verifier.discharge vcs in
  check Alcotest.int "one failure" 1 rep.Verifier.falsified;
  check Alcotest.int "one success" 1 rep.Verifier.proved;
  check Alcotest.bool "not all proved" false (Verifier.all_proved rep);
  check Alcotest.int "failures listed" 1 (List.length (Verifier.failures rep))

let test_verifier_categories () =
  let vcs =
    [
      Vc.prop ~id:"1" ~category:"x" (fun () -> true);
      Vc.prop ~id:"2" ~category:"y" (fun () -> true);
      Vc.prop ~id:"3" ~category:"x" (fun () -> true);
    ]
  in
  let rep = Verifier.discharge vcs in
  let cats = Verifier.by_category rep in
  check Alcotest.int "two categories" 2 (List.length cats);
  check Alcotest.int "x has two" 2 (List.length (List.assoc "x" cats))

let test_verifier_summary_names_slowest () =
  let spin () =
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 0.02 do () done;
    true
  in
  let rep =
    Verifier.discharge
      [ Vc.prop ~id:"quick" ~category:"a" (fun () -> true);
        Vc.prop ~id:"slow/one" ~category:"a" spin ]
  in
  let s = Format.asprintf "%a" Verifier.pp_summary rep in
  check Alcotest.bool s true (String.ends_with ~suffix:" s (slow/one)" s)

let test_verifier_breakdown () =
  let result (id, category, time_s) =
    { Verifier.vc = Vc.prop ~id ~category (fun () -> true); time_s;
      outcome = Vc.Proved }
  in
  let results =
    List.map result
      [ ("a1", "a", 0.5); ("b1", "b", 0.25); ("a2", "a", 2.0);
        ("b2", "b", 0.125); ("a3", "a", 1.0); ("b3", "b", 0.0625) ]
  in
  let rep =
    { Verifier.results; total_time_s = 3.9375; wall_time_s = 3.9375;
      max_time_s = 2.0; jobs = 1; proved = 6; falsified = 0; timed_out = 0;
      capped = 0 }
  in
  let lines =
    String.split_on_char '\n' (Format.asprintf "%a" Verifier.pp_breakdown rep)
    |> List.map String.trim
    |> List.filter (( <> ) "")
  in
  check (Alcotest.list Alcotest.string) "categories, then five slowest"
    [ "a                                3 VCs    3.500 s";
      "b                                3 VCs    0.438 s";
      "slowest     2.000 s  a2";
      "1.000 s  a3";
      "0.500 s  a1";
      "0.250 s  b1";
      "0.125 s  b2" ]
    lines

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_run_preserves_order () =
  Pool.with_pool ~domains:4 (fun pool ->
      let expect = List.init 100 (fun i -> i * i) in
      let got = Pool.run pool (List.init 100 (fun i () -> i * i)) in
      check (Alcotest.list Alcotest.int) "submission order kept" expect got)

let test_pool_map_matches_sequential () =
  Pool.with_pool ~domains:3 (fun pool ->
      let xs = List.init 50 (fun i -> i) in
      let f x = (x * 7) mod 13 in
      check (Alcotest.list Alcotest.int) "map = List.map" (List.map f xs)
        (Pool.map pool f xs))

let test_pool_empty_and_oversubscribed () =
  Pool.with_pool ~domains:4 (fun pool ->
      check (Alcotest.list Alcotest.unit) "empty batch" []
        (Pool.run pool ([] : (unit -> unit) list));
      (* Fewer tasks than workers still completes and keeps order. *)
      check (Alcotest.list Alcotest.int) "2 tasks on 4 domains" [ 1; 2 ]
        (Pool.run pool [ (fun () -> 1); (fun () -> 2) ]))

let test_pool_exception_propagates () =
  Pool.with_pool ~domains:2 (fun pool ->
      (match
         Pool.run pool
           [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]
       with
      | exception Failure msg -> check Alcotest.string "message" "boom" msg
      | _ -> Alcotest.fail "task exception must re-raise");
      (* The pool survives a failed batch. *)
      check (Alcotest.list Alcotest.int) "still usable" [ 9 ]
        (Pool.run pool [ (fun () -> 9) ]))

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~domains:2 () in
  check Alcotest.int "size" 2 (Pool.size pool);
  Pool.shutdown pool;
  Pool.shutdown pool;
  match Pool.run pool [ (fun () -> 1) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "run after shutdown must be rejected"

let test_pool_invalid_size () =
  match Pool.create ~domains:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "domains <= 0 must be rejected"

(* ------------------------------------------------------------------ *)
(* Parallel discharge and per-VC budgets *)

let outcome_testable =
  Alcotest.testable Vc.pp_outcome (fun (a : Vc.outcome) b -> a = b)

let test_discharge_parallel_matches_sequential () =
  let vcs =
    List.init 40 (fun i ->
        if i mod 7 = 3 then
          Vc.prop ~id:(Printf.sprintf "bad/%d" i) ~category:"planted"
            (fun () -> false)
        else
          Vc.prop ~id:(Printf.sprintf "ok/%d" i) ~category:"fine" (fun () ->
              Vc.forall_range ~lo:0 ~hi:500 (fun j -> j >= 0) ()))
  in
  let seq = Verifier.discharge ~jobs:1 vcs in
  let par = Verifier.discharge ~jobs:4 vcs in
  check Alcotest.int "jobs recorded" 4 par.Verifier.jobs;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string outcome_testable))
    "same ids, same outcomes, same order"
    (List.map (fun r -> (r.Verifier.vc.Vc.id, r.Verifier.outcome)) seq.Verifier.results)
    (List.map (fun r -> (r.Verifier.vc.Vc.id, r.Verifier.outcome)) par.Verifier.results);
  check Alcotest.int "falsified count agrees" seq.Verifier.falsified
    par.Verifier.falsified

(* The acceptance bar for the engine: parallel discharge of every VC
   suite in the repository must be outcome-identical to the sequential
   path. *)
let all_suites : (string * (unit -> Vc.t list)) list =
  [
    ("pt", Bi_pt.Pt_refinement.all);
    ("ptx", Bi_pt.Pt_extensions.vcs);
    ("nr", Bi_nr.Nr_check.vcs);
    ("fs", Bi_fs.Fs_refinement.vcs);
    ("net", Bi_net.Net_check.vcs);
    ("abi", Bi_kernel.Sysabi.vcs);
  ]

let test_discharge_all_suites_parallel () =
  List.iter
    (fun (name, vcs_fn) ->
      let vcs = vcs_fn () in
      let seq = Verifier.discharge ~jobs:1 vcs in
      let par = Verifier.discharge ~jobs:4 vcs in
      check
        (Alcotest.list (Alcotest.pair Alcotest.string outcome_testable))
        (name ^ ": parallel = sequential")
        (List.map
           (fun r -> (r.Verifier.vc.Vc.id, r.Verifier.outcome))
           seq.Verifier.results)
        (List.map
           (fun r -> (r.Verifier.vc.Vc.id, r.Verifier.outcome))
           par.Verifier.results);
      check Alcotest.bool (name ^ ": all proved both ways") true
        (Verifier.all_proved seq = Verifier.all_proved par))
    all_suites

let test_discharge_timeout_interrupts_divergent () =
  (* A check that would enumerate ~max_int values: without a budget it
     would hang the suite; the cooperative deadline must stop it. *)
  let divergent =
    Vc.make ~id:"diverge" ~category:"t" (fun () ->
        Vc.outcome_of_bool
          (Vc.forall_range ~lo:0 ~hi:max_int (fun _ -> true) ()))
  in
  let quick = Vc.prop ~id:"quick" ~category:"t" (fun () -> true) in
  let rep = Verifier.discharge ~timeout_s:0.05 [ quick; divergent ] in
  check Alcotest.int "one timeout" 1 rep.Verifier.timed_out;
  check Alcotest.int "quick one proved" 1 rep.Verifier.proved;
  check Alcotest.int "timeout is not falsification" 0 rep.Verifier.falsified;
  check Alcotest.bool "not all proved" false (Verifier.all_proved rep);
  (match (List.nth rep.Verifier.results 1).Verifier.outcome with
  | Vc.Timeout b -> check (Alcotest.float 1e-9) "budget reported" 0.05 b
  | o -> Alcotest.failf "expected timeout, got %a" Vc.pp_outcome o);
  check Alcotest.int "timeouts listed as failures" 1
    (List.length (Verifier.failures rep))

let test_discharge_timeout_parallel_leaves_others () =
  (* One divergent VC on a 2-domain pool must not prevent the other VCs
     from completing, nor disturb result order. *)
  let divergent =
    Vc.make ~id:"diverge" ~category:"t" (fun () ->
        Vc.outcome_of_bool
          (Vc.forall_range ~lo:0 ~hi:max_int (fun _ -> true) ()))
  in
  let quick i =
    Vc.prop ~id:(Printf.sprintf "quick/%d" i) ~category:"t" (fun () -> true)
  in
  let vcs = [ quick 0; divergent; quick 1; quick 2 ] in
  let rep = Verifier.discharge ~jobs:2 ~timeout_s:0.05 vcs in
  check Alcotest.int "three proved" 3 rep.Verifier.proved;
  check Alcotest.int "one timeout" 1 rep.Verifier.timed_out;
  check
    (Alcotest.list Alcotest.string)
    "order preserved"
    [ "quick/0"; "diverge"; "quick/1"; "quick/2" ]
    (List.map (fun r -> r.Verifier.vc.Vc.id) rep.Verifier.results)

let test_discharge_budget_does_not_leak () =
  (* After a timed-out VC, subsequent checks on the same domain run with
     the budget restored (no stale deadline). *)
  let divergent =
    Vc.make ~id:"diverge" ~category:"t" (fun () ->
        Vc.outcome_of_bool
          (Vc.forall_range ~lo:0 ~hi:max_int (fun _ -> true) ()))
  in
  let rep = Verifier.discharge ~timeout_s:0.05 [ divergent ] in
  check Alcotest.int "timed out" 1 rep.Verifier.timed_out;
  (* No budget armed any more: a long-but-finite loop completes. *)
  check Alcotest.bool "deadline disarmed" true
    (Vc.forall_range ~lo:0 ~hi:2_000_000 (fun _ -> true) ())

let test_wall_time_recorded () =
  let vcs = List.init 8 (fun i -> Vc.prop ~id:(string_of_int i) ~category:"c" (fun () -> true)) in
  let rep = Verifier.discharge ~jobs:2 vcs in
  check Alcotest.bool "wall time positive" true (rep.Verifier.wall_time_s >= 0.);
  check Alcotest.bool "speedup finite" true (Float.is_finite (Verifier.speedup rep))

(* ------------------------------------------------------------------ *)
(* Contract *)

let test_contract_checked_violation () =
  Contract.with_mode Contract.Checked (fun () ->
      match
        Contract.apply ~name:"t" ~requires:(fun () -> false)
          ~ensures:(fun _ -> true)
          (fun () -> 1)
      with
      | exception Contract.Violation { clause = "requires"; _ } -> ()
      | _ -> Alcotest.fail "requires must fire")

let test_contract_ensures_violation () =
  Contract.with_mode Contract.Checked (fun () ->
      match
        Contract.apply ~name:"t" ~requires:(fun () -> true)
          ~ensures:(fun v -> v > 10)
          (fun () -> 1)
      with
      | exception Contract.Violation { clause = "ensures"; _ } -> ()
      | _ -> Alcotest.fail "ensures must fire")

let test_contract_erased_skips () =
  Contract.with_mode Contract.Erased (fun () ->
      let v =
        Contract.apply ~name:"t" ~requires:(fun () -> false)
          ~ensures:(fun _ -> false)
          (fun () -> 7)
      in
      check Alcotest.int "body still runs" 7 v)

let test_contract_mode_restored () =
  Contract.set_mode Contract.Checked;
  (try Contract.with_mode Contract.Erased (fun () -> failwith "x")
   with Failure _ -> ());
  check Alcotest.bool "mode restored on exception" true
    (Contract.mode () = Contract.Checked)

let test_contract_ghost () =
  let ran = ref false in
  Contract.with_mode Contract.Erased (fun () -> Contract.ghost (fun () -> ran := true));
  check Alcotest.bool "ghost skipped when erased" false !ran;
  Contract.with_mode Contract.Checked (fun () -> Contract.ghost (fun () -> ran := true));
  check Alcotest.bool "ghost runs when checked" true !ran

(* ------------------------------------------------------------------ *)
(* State machine + refinement on a toy system *)

module Counter_spec = struct
  type state = int
  type op = Add of int | Get
  type ret = Value of int | Unit

  let step st = function
    | Add n -> if n < 0 then None else Some (st + n, Unit)
    | Get -> Some (st, Value st)

  let equal_state = Int.equal
  let equal_ret a b = a = b
  let pp_state = Format.pp_print_int
  let pp_op ppf = function
    | Add n -> Format.fprintf ppf "add %d" n
    | Get -> Format.fprintf ppf "get"
  let pp_ret ppf = function
    | Value v -> Format.fprintf ppf "value %d" v
    | Unit -> Format.fprintf ppf "()"
end

module Counter_impl = struct
  type t = { mutable v : int; buggy : bool }
  type op = Counter_spec.op
  type ret = Counter_spec.ret

  let step t = function
    | Counter_spec.Add n ->
        (* The planted bug: loses increments of exactly 3. *)
        if t.buggy && n = 3 then Counter_spec.Unit
        else begin
          t.v <- t.v + n;
          Counter_spec.Unit
        end
    | Counter_spec.Get -> Counter_spec.Value t.v
end

module R = Bi_core.Refinement.Make (Counter_spec) (Counter_impl)

let test_refinement_accepts_correct () =
  let impl = { Counter_impl.v = 0; buggy = false } in
  match
    R.check_trace
      ~view:(fun i -> i.Counter_impl.v)
      ~impl ~init:0
      [ Counter_spec.Add 1; Counter_spec.Get; Counter_spec.Add 3; Counter_spec.Get ]
  with
  | Ok () -> ()
  | Error f -> Alcotest.failf "unexpected: %a" R.pp_failure f

let test_refinement_catches_bug () =
  let impl = { Counter_impl.v = 0; buggy = true } in
  match
    R.check_trace
      ~view:(fun i -> i.Counter_impl.v)
      ~impl ~init:0
      [ Counter_spec.Add 3; Counter_spec.Get ]
  with
  | Ok () -> Alcotest.fail "planted bug must be caught"
  | Error _ -> ()

let test_refinement_skips_disabled () =
  let impl = { Counter_impl.v = 0; buggy = false } in
  (* Add (-1) is disabled in the spec; it must be skipped, not executed. *)
  match
    R.check_trace
      ~view:(fun i -> i.Counter_impl.v)
      ~impl ~init:0
      [ Counter_spec.Add (-1); Counter_spec.Get ]
  with
  | Ok () -> check Alcotest.int "not executed" 0 impl.Counter_impl.v
  | Error f -> Alcotest.failf "unexpected: %a" R.pp_failure f

let test_refinement_random_catches_bug () =
  let gen_op g _ =
    if Gen.bool g then Counter_spec.Add (Gen.int g 6) else Counter_spec.Get
  in
  match
    R.check_random
      ~view:(fun i -> i.Counter_impl.v)
      ~make_impl:(fun () -> { Counter_impl.v = 0; buggy = true })
      ~init:0 ~gen_op ~seed:"catch" ~traces:4 ~steps:40
  with
  | Ok () -> Alcotest.fail "random traces must hit the planted bug"
  | Error _ -> ()

module Trace = Bi_core.State_machine.Trace (Counter_spec)

let test_trace_run () =
  match Trace.run 0 [ Counter_spec.Add 2; Counter_spec.Get ] with
  | Some (st, rets) ->
      check Alcotest.int "state" 2 st;
      check Alcotest.int "two returns" 2 (List.length rets)
  | None -> Alcotest.fail "trace enabled"

let test_trace_disabled () =
  check Alcotest.bool "disabled trace" true
    (Trace.run 0 [ Counter_spec.Add (-2) ] = None)

let test_trace_reachable () =
  let states = Trace.reachable 0 ~ops:[ Counter_spec.Add 1 ] ~depth:3 in
  check (Alcotest.list Alcotest.int) "reachable" [ 0; 1; 2; 3 ]
    (List.sort compare states)

(* ------------------------------------------------------------------ *)
(* Linearizability *)

module Reg_spec = struct
  type state = int
  type op = Write of int | Read
  type ret = int

  let step st = function Write v -> (v, 0) | Read -> (st, st)
  let equal_ret = Int.equal
  let pp_op ppf = function
    | Write v -> Format.fprintf ppf "w%d" v
    | Read -> Format.fprintf ppf "r"
  let pp_ret = Format.pp_print_int
end

module Lin = Bi_core.Linearizability.Make (Reg_spec)

let test_lin_accepts_sequential () =
  let history =
    [
      { Lin.proc = 0; op = Reg_spec.Write 1; ret = 0; inv = 0; res = 1 };
      { Lin.proc = 0; op = Reg_spec.Read; ret = 1; inv = 2; res = 3 };
    ]
  in
  check Alcotest.bool "sequential history ok" true (Lin.check ~init:0 history)

let test_lin_accepts_concurrent_reorder () =
  (* Overlapping write/read: read may see either value. *)
  let history v =
    [
      { Lin.proc = 0; op = Reg_spec.Write 5; ret = 0; inv = 0; res = 10 };
      { Lin.proc = 1; op = Reg_spec.Read; ret = v; inv = 1; res = 9 };
    ]
  in
  check Alcotest.bool "read old" true (Lin.check ~init:0 (history 0));
  check Alcotest.bool "read new" true (Lin.check ~init:0 (history 5))

let test_lin_rejects_stale_read () =
  (* Write completes strictly before the read starts; reading the old
     value is not linearizable. *)
  let history =
    [
      { Lin.proc = 0; op = Reg_spec.Write 5; ret = 0; inv = 0; res = 1 };
      { Lin.proc = 1; op = Reg_spec.Read; ret = 0; inv = 2; res = 3 };
    ]
  in
  check Alcotest.bool "stale read rejected" false (Lin.check ~init:0 history);
  check Alcotest.bool "counterexample produced" true
    (Lin.counterexample ~init:0 history <> None)

let test_lin_rejects_phantom_value () =
  let history =
    [ { Lin.proc = 0; op = Reg_spec.Read; ret = 9; inv = 0; res = 1 } ]
  in
  check Alcotest.bool "phantom read rejected" false (Lin.check ~init:0 history)

(* The counterexample must name the call whose return no witness can
   produce, not just dump the history. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let expect_counterexample history ~names ~not_blamed =
  match Lin.counterexample ~init:0 history with
  | None -> Alcotest.fail "history must be non-linearizable"
  | Some msg ->
      check Alcotest.bool
        (Printf.sprintf "explanation %S names %S" msg names)
        true
        (contains msg ("no witness can produce the return of the call\n  " ^ names)
        || contains msg ("of any of\n" ^ names));
      List.iter
        (fun other ->
            check Alcotest.bool
              (Printf.sprintf "does not blame %S" other)
              false
              (contains msg ("return of the call\n  " ^ other)))
        not_blamed

let test_lin_counterexample_stale_read () =
  (* Write completes before the read starts; the stale read is the
     offending call, the write is fine. *)
  expect_counterexample
    [
      { Lin.proc = 0; op = Reg_spec.Write 5; ret = 0; inv = 0; res = 1 };
      { Lin.proc = 1; op = Reg_spec.Read; ret = 0; inv = 2; res = 3 };
    ]
    ~names:"p1: r -> 0 [2,3]"
    ~not_blamed:[ "p0: w5 -> 0 [0,1]" ]

let test_lin_counterexample_duplicated_response () =
  (* Two non-overlapping reads of a register that was written once in
     between: the second read's duplicated old value is the offender. *)
  expect_counterexample
    [
      { Lin.proc = 0; op = Reg_spec.Read; ret = 0; inv = 0; res = 1 };
      { Lin.proc = 0; op = Reg_spec.Write 7; ret = 0; inv = 2; res = 3 };
      { Lin.proc = 1; op = Reg_spec.Read; ret = 0; inv = 4; res = 5 };
    ]
    ~names:"p1: r -> 0 [4,5]"
    ~not_blamed:[ "p0: r -> 0 [0,1]"; "p0: w7 -> 0 [2,3]" ]

let test_lin_counterexample_realtime_violation () =
  (* Both writes precede the read in real time, so their order is fixed
     and the read must see the second one; seeing the first violates the
     real-time order. *)
  expect_counterexample
    [
      { Lin.proc = 0; op = Reg_spec.Write 1; ret = 0; inv = 0; res = 1 };
      { Lin.proc = 0; op = Reg_spec.Write 2; ret = 0; inv = 2; res = 3 };
      { Lin.proc = 1; op = Reg_spec.Read; ret = 1; inv = 4; res = 5 };
    ]
    ~names:"p1: r -> 1 [4,5]"
    ~not_blamed:[ "p0: w1 -> 0 [0,1]"; "p0: w2 -> 0 [2,3]" ]

(* ------------------------------------------------------------------ *)
(* Interleave *)

let test_merges_count () =
  let ms = Interleave.value (Interleave.merges [ [ 1; 2 ]; [ 3 ] ]) in
  check Alcotest.int "3 merges" 3 (List.length ms);
  check Alcotest.int "count matches" (List.length ms)
    (Interleave.count_merges [ [ 1; 2 ]; [ 3 ] ])

let test_merges_order_preserved () =
  let ms = Interleave.value (Interleave.merges [ [ 1; 2 ]; [ 3; 4 ] ]) in
  let ordered l =
    let pos x = ref (List.mapi (fun i y -> (y, i)) l |> List.assoc x) in
    !(pos 1) < !(pos 2) && !(pos 3) < !(pos 4)
  in
  check Alcotest.bool "per-thread order kept" true (List.for_all ordered ms)

let test_count_merges_multinomial () =
  check Alcotest.int "C(4,2)" 6 (Interleave.count_merges [ [ 1; 2 ]; [ 3; 4 ] ]);
  check Alcotest.int "trivial" 1 (Interleave.count_merges [ [ 1; 2; 3 ] ])

let test_exhaustive_finds_race () =
  (* Two non-atomic increments: read, then write.  Some interleavings lose
     an update; the explorer must find a final state of 1. *)
  let read v (st : int * int option * int option) =
    let a, t0, t1 = st in
    if v = 0 then (a, Some a, t1) else (a, t0, Some a)
  in
  let write v (st : int * int option * int option) =
    let _, t0, t1 = st in
    match if v = 0 then t0 else t1 with
    | Some tmp -> (tmp + 1, t0, t1)
    | None -> st
  in
  let finals =
    Interleave.value
      (Interleave.final_states ~init:(0, None, None)
         ~threads:[ [ read 0; write 0 ]; [ read 1; write 1 ] ]
         ())
  in
  let results = List.map (fun (a, _, _) -> a) finals in
  check Alcotest.bool "race found (lost update)" true (List.mem 1 results);
  check Alcotest.bool "correct case found" true (List.mem 2 results)

let test_exhaustive_invariant_failure_reported () =
  match
    Interleave.exhaustive ~init:0
      ~threads:[ [ (fun x -> x + 1) ]; [ (fun x -> x + 1) ] ]
      ~check:(fun x -> x < 2)
      ()
  with
  | Ok _ -> Alcotest.fail "invariant violation must be reported"
  | Error msg -> check Alcotest.bool "schedule named" true (String.length msg > 0)

let test_exhaustive_limit () =
  let thread = List.init 10 (fun _ x -> x) in
  match
    Interleave.exhaustive ~limit:5 ~init:0
      ~threads:[ thread; thread; thread ]
      ~check:(fun _ -> true)
      ()
  with
  | Ok (Interleave.Capped ()) -> ()
  | Ok (Interleave.Complete ()) -> Alcotest.fail "limit must cap enumeration"
  | Error _ -> Alcotest.fail "no invariant should fail"

let test_merges_capped_typed () =
  (* The cap is a typed outcome, not an exception, and the payload is a
     prefix of the full enumeration. *)
  match Interleave.merges ~limit:2 [ [ 1; 2 ]; [ 3; 4 ] ] with
  | Interleave.Capped ms ->
      check Alcotest.int "prefix length" 2 (List.length ms);
      let all = Interleave.value (Interleave.merges [ [ 1; 2 ]; [ 3; 4 ] ]) in
      check Alcotest.int "full space" 6 (List.length all);
      check Alcotest.bool "prefix of full order" true
        (ms = [ List.nth all 0; List.nth all 1 ])
  | Interleave.Complete _ -> Alcotest.fail "limit 2 of 6 must cap"

(* ------------------------------------------------------------------ *)
(* Explore: the model checker's own exploration, shrinking and replay *)

(* Two threads doing a non-atomic increment (read, then write back) over
   a shared cell: the classic lost update.  Used by several tests. *)
let lost_update_threads =
  let body v ctx =
    let tmp = Explore.read ctx v in
    Explore.write ctx v (tmp + 1)
  in
  [ body; body ]

let lost_update_final v =
  if Explore.peek v = 2 then None
  else Some (Printf.sprintf "counter = %d, expected 2" (Explore.peek v))

let test_explore_finds_lost_update () =
  match
    Explore.run
      ~make:(fun ctx -> Explore.var ctx ~name:"c" 0)
      ~threads:lost_update_threads ~final:lost_update_final ()
  with
  | Explore.Fail (f, _) ->
      check Alcotest.bool "assertion failure" true
        (match f.Explore.kind with Explore.Assertion _ -> true | _ -> false)
  | Explore.Pass _ -> Alcotest.fail "lost update must be found"

let test_explore_atomic_passes () =
  let body v ctx = ignore (Explore.update ctx v (fun x -> x + 1)) in
  match
    Explore.run
      ~make:(fun ctx -> Explore.var ctx 0)
      ~threads:[ body; body; body ] ~final:(fun v ->
        if Explore.peek v = 3 then None else Some "not 3")
      ()
  with
  | Explore.Pass stats ->
      check Alcotest.bool "complete" true stats.Explore.complete
  | Explore.Fail (f, _) ->
      Alcotest.failf "atomic increments must pass: %s"
        (String.concat "|" f.Explore.trace)

let test_explore_deterministic () =
  let go () =
    Explore.run
      ~make:(fun ctx -> Explore.var ctx 0)
      ~threads:lost_update_threads ~final:lost_update_final ()
  in
  match (go (), go ()) with
  | Explore.Fail (f1, s1), Explore.Fail (f2, s2) ->
      check (Alcotest.list Alcotest.int) "same schedule" f1.Explore.schedule
        f2.Explore.schedule;
      check Alcotest.int "same schedule count" s1.Explore.schedules
        s2.Explore.schedules
  | _ -> Alcotest.fail "both runs must fail identically"

(* A 3-thread bug that needs at least one preemption but is seeded so the
   naive DFS first finds it on a schedule with extra context switches:
   shrinking must bring it down, and the shrunk schedule must replay. *)
let shrink_make ctx = Explore.var ctx ~name:"c" 0

let shrink_threads =
  let incr_nonatomic v ctx =
    let tmp = Explore.read ctx v in
    Explore.write ctx v (tmp + 1)
  in
  let noise v ctx =
    let _ = Explore.read ctx v in
    let _ = Explore.read ctx v in
    ()
  in
  [ incr_nonatomic; incr_nonatomic; noise ]

let shrink_final v = if Explore.peek v = 2 then None else Some "lost update"

let test_explore_shrinks_to_few_preemptions () =
  match
    Explore.run ~make:shrink_make ~threads:shrink_threads ~final:shrink_final
      ()
  with
  | Explore.Fail (f, _) ->
      check Alcotest.bool "≤2 preemptions after shrinking" true
        (f.Explore.preemptions <= 2)
  | Explore.Pass _ -> Alcotest.fail "seeded race must be found"

let test_explore_shrunk_schedule_replays () =
  match
    Explore.run ~make:shrink_make ~threads:shrink_threads ~final:shrink_final
      ()
  with
  | Explore.Fail (f, _) -> (
      match
        Explore.replay ~make:shrink_make ~threads:shrink_threads
          ~final:shrink_final ~schedule:f.Explore.schedule ()
      with
      | Some f' ->
          check Alcotest.bool "same kind of failure" true
            (match f'.Explore.kind with
            | Explore.Assertion _ -> true
            | _ -> false)
      | None -> Alcotest.fail "shrunk schedule must reproduce the failure")
  | Explore.Pass _ -> Alcotest.fail "seeded race must be found"

let test_explore_deadlock_detected () =
  (* Classic ABBA lock ordering deadlock. *)
  let make ctx = (Explore.lock ctx ~name:"A" (), Explore.lock ctx ~name:"B" ()) in
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
  match Explore.run ~make ~threads:[ t_ab; t_ba ] () with
  | Explore.Fail (f, _) ->
      check Alcotest.bool "deadlock" true
        (match f.Explore.kind with Explore.Deadlock _ -> true | _ -> false)
  | Explore.Pass _ -> Alcotest.fail "ABBA deadlock must be found"

let test_explore_por_reduces () =
  (* Three threads touching disjoint cells: POR collapses the schedule
     space; without POR the explorer visits strictly more schedules. *)
  let make ctx = Array.init 3 (fun i -> Explore.var ctx i) in
  let t i vs ctx =
    Explore.write ctx vs.(i) 1;
    Explore.write ctx vs.(i) 2
  in
  let threads = [ t 0; t 1; t 2 ] in
  let count por =
    match
      Explore.run
        ~config:{ Explore.default_config with por }
        ~make ~threads ()
    with
    | Explore.Pass s -> s.Explore.schedules
    | Explore.Fail _ -> Alcotest.fail "independent writes cannot fail"
  in
  let with_por = count true and without = count false in
  check Alcotest.bool
    (Printf.sprintf "POR %d < naive %d" with_por without)
    true
    (with_por < without)

(* The rendered failure text, pinned: traces are rendered from what each
   operation captured when it yielded, so names and values must read as
   they did at that step, not as the objects stand when the failure is
   reported. *)
let rendered = function
  | Explore.Fail (f, _) -> Explore.render_failure f
  | Explore.Pass _ -> Alcotest.fail "the workload must fail"

let test_explore_rendered_failures () =
  check Alcotest.string "lost update on an unnamed var"
    "assertion: final state: counter = 1, expected 2 under schedule \
     [0;1;1;0] (1 preemption): t0: read v0 | t1: read v0 | t1: write v0=1 \
     | t0: write v0=1"
    (rendered
       (Explore.run
          ~make:(fun ctx -> Explore.var ctx 0)
          ~threads:lost_update_threads ~final:lost_update_final ()));
  let t_ab (a, b) ctx =
    Explore.acquire ctx b;
    Explore.acquire ctx a;
    Explore.release ctx a;
    Explore.release ctx b
  in
  let t_ba (a, b) ctx =
    Explore.acquire ctx a;
    Explore.acquire ctx b;
    Explore.release ctx b;
    Explore.release ctx a
  in
  check Alcotest.string "ABBA deadlock on unnamed locks"
    "deadlock: t0 blocked at acquire l0; t1 blocked at acquire l1; under \
     schedule [0;1] (1 preemption): t0: acquire l1 | t1: acquire l0"
    (rendered
       (Explore.run
          ~make:(fun ctx ->
            let a = Explore.lock ctx () in
            (a, Explore.lock ctx ()))
          ~threads:[ t_ab; t_ba ] ()));
  (* One thread through every operation kind; [v0] is overwritten after
     each write and CAS, and the run ends parked on the named cell. *)
  let every_op (v, w, l) ctx =
    ignore (Explore.read ctx v);
    Explore.write ctx v 1;
    ignore (Explore.cas ctx v ~expect:1 ~set:7);
    ignore (Explore.cas ctx v ~expect:1 ~set:9);
    ignore (Explore.update ctx v (fun x -> x + 1));
    Explore.acquire ctx l;
    Explore.release ctx l;
    Explore.park ctx v ~expect:0;
    ignore (Explore.unpark ctx w ~count:2);
    ignore (Explore.await ctx v (fun x -> x = 8));
    Explore.write ctx v 3;
    Explore.park_any ctx w
  in
  check Alcotest.string "every op, values overwritten later"
    "deadlock: t0 parked on w; under schedule [0;0;0;0;0;0;0;0;0;0;0;0] (0 \
     preemptions): t0: read v0 | t0: write v0=1 | t0: cas v0 1->7 | t0: cas \
     v0 1->9 | t0: rmw v0 | t0: acquire l2 | t0: release l2 | t0: park v0 \
     if=0 | t0: unpark w n=2 | t0: await v0 | t0: write v0=3 | t0: park! w"
    (rendered
       (Explore.run
          ~make:(fun ctx ->
            let v = Explore.var ctx 0 in
            let w = Explore.var ctx ~name:"w" 0 in
            (v, w, Explore.lock ctx ()))
          ~threads:[ every_op ] ()))

let () =
  Alcotest.run "bi_core"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "of_string distinct" `Quick test_gen_of_string_distinct;
          Alcotest.test_case "int bounds" `Quick test_gen_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_gen_int_in;
          Alcotest.test_case "shuffle permutation" `Quick test_gen_shuffle_permutation;
          Alcotest.test_case "oneof member" `Quick test_gen_oneof_member;
          Alcotest.test_case "bits mask" `Quick test_gen_bits_mask;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "cdf" `Quick test_stats_cdf;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "percentile extremes" `Quick
            test_stats_percentile_extremes;
          Alcotest.test_case "percentile duplicates" `Quick
            test_stats_percentile_duplicates;
          Alcotest.test_case "cdf duplicates" `Quick test_stats_cdf_duplicates;
          Alcotest.test_case "histogram degenerate range" `Quick
            test_stats_histogram_degenerate;
          prop_cdf_monotone;
          prop_percentile_member;
        ] );
      ( "reservoir",
        [
          Alcotest.test_case "exact below capacity" `Quick
            test_reservoir_exact_below_capacity;
          Alcotest.test_case "bounded error on a 200k stream" `Quick
            test_reservoir_bounded_error_large_stream;
          Alcotest.test_case "edge cases" `Quick test_reservoir_edge_cases;
          Alcotest.test_case "deterministic" `Quick test_reservoir_deterministic;
        ] );
      ( "pool",
        [
          Alcotest.test_case "run preserves order" `Quick
            test_pool_run_preserves_order;
          Alcotest.test_case "map matches sequential" `Quick
            test_pool_map_matches_sequential;
          Alcotest.test_case "empty and oversubscribed" `Quick
            test_pool_empty_and_oversubscribed;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
          Alcotest.test_case "invalid size" `Quick test_pool_invalid_size;
        ] );
      ( "parallel discharge",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_discharge_parallel_matches_sequential;
          Alcotest.test_case "all six suites agree" `Slow
            test_discharge_all_suites_parallel;
          Alcotest.test_case "timeout interrupts divergent VC" `Quick
            test_discharge_timeout_interrupts_divergent;
          Alcotest.test_case "timeout isolates one VC in a pool" `Quick
            test_discharge_timeout_parallel_leaves_others;
          Alcotest.test_case "budget does not leak" `Quick
            test_discharge_budget_does_not_leak;
          Alcotest.test_case "wall time recorded" `Quick
            test_wall_time_recorded;
        ] );
      ( "vc",
        [
          Alcotest.test_case "prop proved" `Quick test_vc_prop_proved;
          Alcotest.test_case "prop falsified" `Quick test_vc_prop_falsified;
          Alcotest.test_case "catch exception" `Quick test_vc_catch_exception;
          Alcotest.test_case "forall_range" `Quick test_vc_forall_range;
          Alcotest.test_case "forall_pairs" `Quick test_vc_forall_pairs;
          Alcotest.test_case "forall_pairs polls its budget" `Quick
            test_vc_forall_pairs_timeout;
          Alcotest.test_case "verifier reports" `Quick test_verifier_reports;
          Alcotest.test_case "verifier categories" `Quick test_verifier_categories;
          Alcotest.test_case "verifier summary names slowest" `Quick
            test_verifier_summary_names_slowest;
          Alcotest.test_case "verifier breakdown" `Quick test_verifier_breakdown;
        ] );
      ( "contract",
        [
          Alcotest.test_case "requires violation" `Quick test_contract_checked_violation;
          Alcotest.test_case "ensures violation" `Quick test_contract_ensures_violation;
          Alcotest.test_case "erased skips checks" `Quick test_contract_erased_skips;
          Alcotest.test_case "mode restored" `Quick test_contract_mode_restored;
          Alcotest.test_case "ghost code gating" `Quick test_contract_ghost;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "accepts correct impl" `Quick test_refinement_accepts_correct;
          Alcotest.test_case "catches planted bug" `Quick test_refinement_catches_bug;
          Alcotest.test_case "skips disabled ops" `Quick test_refinement_skips_disabled;
          Alcotest.test_case "random traces catch bug" `Quick test_refinement_random_catches_bug;
          Alcotest.test_case "trace run" `Quick test_trace_run;
          Alcotest.test_case "trace disabled" `Quick test_trace_disabled;
          Alcotest.test_case "trace reachable" `Quick test_trace_reachable;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "accepts sequential" `Quick test_lin_accepts_sequential;
          Alcotest.test_case "accepts concurrent reorder" `Quick test_lin_accepts_concurrent_reorder;
          Alcotest.test_case "rejects stale read" `Quick test_lin_rejects_stale_read;
          Alcotest.test_case "rejects phantom value" `Quick test_lin_rejects_phantom_value;
          Alcotest.test_case "counterexample names stale read" `Quick
            test_lin_counterexample_stale_read;
          Alcotest.test_case "counterexample names duplicated response" `Quick
            test_lin_counterexample_duplicated_response;
          Alcotest.test_case "counterexample names real-time violation" `Quick
            test_lin_counterexample_realtime_violation;
        ] );
      ( "interleave",
        [
          Alcotest.test_case "merge count" `Quick test_merges_count;
          Alcotest.test_case "order preserved" `Quick test_merges_order_preserved;
          Alcotest.test_case "multinomial count" `Quick test_count_merges_multinomial;
          Alcotest.test_case "finds lost update" `Quick test_exhaustive_finds_race;
          Alcotest.test_case "reports violating schedule" `Quick test_exhaustive_invariant_failure_reported;
          Alcotest.test_case "limit trips" `Quick test_exhaustive_limit;
          Alcotest.test_case "capped is typed" `Quick test_merges_capped_typed;
        ] );
      ( "explore",
        [
          Alcotest.test_case "finds lost update" `Quick
            test_explore_finds_lost_update;
          Alcotest.test_case "atomic passes" `Quick test_explore_atomic_passes;
          Alcotest.test_case "deterministic" `Quick test_explore_deterministic;
          Alcotest.test_case "shrinks to few preemptions" `Quick
            test_explore_shrinks_to_few_preemptions;
          Alcotest.test_case "shrunk schedule replays" `Quick
            test_explore_shrunk_schedule_replays;
          Alcotest.test_case "detects ABBA deadlock" `Quick
            test_explore_deadlock_detected;
          Alcotest.test_case "POR reduces schedules" `Quick
            test_explore_por_reduces;
          Alcotest.test_case "rendered failure text" `Quick
            test_explore_rendered_failures;
        ] );
    ]
