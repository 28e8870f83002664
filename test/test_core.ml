(* Tests for the verification framework itself: the framework must catch
   bugs, not just bless correct code, so several tests plant defects and
   require detection. *)

module Gen = Bi_core.Gen
module Stats = Bi_core.Stats
module Vc = Bi_core.Vc
module Verifier = Bi_core.Verifier
module Contract = Bi_core.Contract
module Explore = Bi_core.Explore
module Mc_check = Bi_core.Mc_check

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
(* Parallel discharge and per-VC budgets *)

let outcome_testable =
  Alcotest.testable Vc.pp_outcome (fun (a : Vc.outcome) b -> a = b)

let ids_and_outcomes rep =
  List.map (fun r -> (r.Verifier.vc.Vc.id, r.Verifier.outcome)) rep.Verifier.results

let check_same_report msg expect got =
  check
    (Alcotest.list (Alcotest.pair Alcotest.string outcome_testable))
    msg (ids_and_outcomes expect) (ids_and_outcomes got)

(* A check that would enumerate ~max_int values: without a budget it
   would hang the suite. *)
let divergent =
  Vc.make ~id:"diverge" ~category:"t" (fun () ->
      Vc.outcome_of_bool (Vc.forall_range ~lo:0 ~hi:max_int (fun _ -> true) ()))

let test_discharge_parallel_matches_sequential () =
  (* No VCs, fewer VCs than domains, and many more. *)
  List.iter
    (fun n ->
      let vcs =
        List.init n (fun i ->
            if i mod 7 = 3 then
              Vc.prop ~id:(Printf.sprintf "bad/%d" i) ~category:"planted"
                (fun () -> false)
            else
              Vc.prop ~id:(Printf.sprintf "ok/%d" i) ~category:"fine"
                (fun () -> Vc.forall_range ~lo:0 ~hi:500 (fun j -> j >= 0) ()))
      in
      let seq = Verifier.discharge ~jobs:1 vcs in
      let par = Verifier.discharge ~jobs:4 vcs in
      let name = Printf.sprintf "%d VCs: " n in
      check Alcotest.int (name ^ "jobs recorded") 4 par.Verifier.jobs;
      check_same_report (name ^ "same ids, same outcomes, same order") seq par;
      check Alcotest.int (name ^ "falsified count agrees") seq.Verifier.falsified
        par.Verifier.falsified)
    [ 0; 2; 40 ]

let test_discharge_raising_vc () =
  (* [Vc.catch] turns an exception into a falsification on whichever
     domain runs the VC; the other VCs still run. *)
  let vcs =
    List.init 12 (fun i ->
        Vc.prop ~id:(string_of_int i) ~category:"c" (fun () ->
            if i mod 4 = 0 then failwith "boom" else true))
  in
  let par = Verifier.discharge ~jobs:4 vcs in
  check_same_report "same as sequential" (Verifier.discharge ~jobs:1 vcs) par;
  check Alcotest.int "three falsified" 3 par.Verifier.falsified;
  check outcome_testable "exception named"
    (Vc.Falsified "exception: Failure(\"boom\")")
    (List.hd par.Verifier.results).Verifier.outcome

let test_discharge_nonpositive_jobs () =
  (* [jobs <= 0] is the sequential path: every VC runs on the caller. *)
  let caller = Domain.self () in
  let vcs =
    List.init 6 (fun i ->
        Vc.prop ~id:(string_of_int i) ~category:"c" (fun () ->
            Domain.self () = caller && i <> 4))
  in
  let seq = Verifier.discharge ~jobs:1 vcs in
  List.iter
    (fun jobs ->
      let rep = Verifier.discharge ~jobs vcs in
      check Alcotest.int "jobs recorded as 1" 1 rep.Verifier.jobs;
      check_same_report (Printf.sprintf "jobs:%d = jobs:1" jobs) seq rep)
    [ 0; -3 ];
  check Alcotest.int "only the planted VC falsified" 1 seq.Verifier.falsified

(* The pool of domains one parallel discharge runs on: the caller plus
   [min jobs n - 1] domains spawned for the call. *)

let test_pool_run_preserves_order () =
  (* Early VCs do the most work, so they finish after later ones; the
     report still lists them in submission order. *)
  let vcs =
    List.init 100 (fun i ->
        Vc.prop ~id:(string_of_int (i * i)) ~category:"c" (fun () ->
            Vc.forall_range ~lo:0 ~hi:((100 - i) * 50) (fun j -> j >= 0) ()))
  in
  let rep = Verifier.discharge ~jobs:4 vcs in
  check (Alcotest.list Alcotest.string) "submission order kept"
    (List.init 100 (fun i -> string_of_int (i * i)))
    (List.map (fun r -> r.Verifier.vc.Vc.id) rep.Verifier.results);
  check Alcotest.int "all proved" 100 rep.Verifier.proved

let test_pool_map_matches_sequential () =
  (* Three domains over a batch they do not divide evenly. *)
  let vcs =
    List.init 50 (fun x ->
        Vc.prop ~id:(string_of_int x) ~category:"c" (fun () -> x * 7 mod 13 <> 0))
  in
  let par = Verifier.discharge ~jobs:3 vcs in
  check_same_report "jobs:3 = jobs:1" (Verifier.discharge ~jobs:1 vcs) par;
  check Alcotest.int "0, 13, 26 and 39 falsified" 4 par.Verifier.falsified

let test_pool_empty_and_oversubscribed () =
  check Alcotest.int "empty batch" 0
    (List.length (Verifier.discharge ~jobs:4 []).Verifier.results);
  (* Fewer VCs than jobs: each VC still runs, and the order is kept. *)
  let ran_on = Array.make 2 (-1) in
  let vcs =
    List.init 2 (fun i ->
        Vc.prop ~id:(string_of_int (i + 1)) ~category:"c" (fun () ->
            ran_on.(i) <- (Domain.self () :> int);
            true))
  in
  let rep = Verifier.discharge ~jobs:4 vcs in
  check (Alcotest.list Alcotest.string) "2 VCs on 4 jobs" [ "1"; "2" ]
    (List.map (fun r -> r.Verifier.vc.Vc.id) rep.Verifier.results);
  check Alcotest.int "both proved" 2 rep.Verifier.proved;
  check Alcotest.bool "each VC ran" true (Array.for_all (fun d -> d >= 0) ran_on)

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
      check_same_report (name ^ ": parallel = sequential") seq par;
      check Alcotest.bool (name ^ ": all proved both ways") true
        (Verifier.all_proved seq = Verifier.all_proved par))
    all_suites

let test_discharge_timeout_interrupts_divergent () =
  (* The cooperative deadline must stop the divergent check. *)
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
  (* One divergent VC on one of two domains must not prevent the other
     VCs from completing, nor disturb result order. *)
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
  let rep = Verifier.discharge ~timeout_s:0.05 [ divergent ] in
  check Alcotest.int "timed out" 1 rep.Verifier.timed_out;
  (* No budget armed any more: a long-but-finite loop completes. *)
  check Alcotest.bool "deadline disarmed" true
    (Vc.forall_range ~lo:0 ~hi:2_000_000 (fun _ -> true) ())

let test_discharge_divergent_on_caller () =
  (* The caller claims an index as soon as its helper is spawned, so the
     divergent first VC normally lands on the calling domain.  Wherever
     it lands, the caller runs some VC under the budget, and must come
     back with its budget disarmed. *)
  let caller = Domain.self () in
  let ran_on = Array.make 4 None in
  let quick i =
    Vc.prop ~id:(Printf.sprintf "quick/%d" i) ~category:"t" (fun () ->
        ran_on.(i + 1) <- Some (Domain.self ());
        true)
  in
  let first =
    Vc.make ~id:"diverge" ~category:"t" (fun () ->
        ran_on.(0) <- Some (Domain.self ());
        divergent.Vc.check ())
  in
  let rep =
    Verifier.discharge ~jobs:2 ~timeout_s:0.05
      [ first; quick 0; quick 1; quick 2 ]
  in
  check Alcotest.int "three proved" 3 rep.Verifier.proved;
  check Alcotest.int "one timeout" 1 rep.Verifier.timed_out;
  check
    (Alcotest.list Alcotest.string)
    "order preserved"
    [ "diverge"; "quick/0"; "quick/1"; "quick/2" ]
    (List.map (fun r -> r.Verifier.vc.Vc.id) rep.Verifier.results);
  check Alcotest.bool "the caller ran a share" true
    (Array.mem (Some caller) ran_on);
  check Alcotest.bool "deadline disarmed on the caller" true
    (Vc.forall_range ~lo:0 ~hi:2_000_000 (fun _ -> true) ())

let test_wall_time_recorded () =
  let vcs = List.init 8 (fun i -> Vc.prop ~id:(string_of_int i) ~category:"c" (fun () -> true)) in
  let rep = Verifier.discharge ~jobs:2 vcs in
  check Alcotest.bool "wall time positive" true (rep.Verifier.wall_time_s >= 0.);
  check Alcotest.bool "summed per-VC time finite" true
    (Float.is_finite rep.Verifier.total_time_s && rep.Verifier.total_time_s >= 0.)

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

let independent_writes_make ctx = Array.init 3 (fun i -> Explore.var ctx i)

let independent_writes_thread i vs ctx =
  Explore.write ctx vs.(i) 1;
  Explore.write ctx vs.(i) 2

let test_explore_por_reduces () =
  (* Three threads touching disjoint cells: POR collapses the schedule
     space; without POR the explorer visits strictly more schedules. *)
  let count por =
    match
      Explore.run
        ~config:{ Explore.default_config with por }
        ~make:independent_writes_make
        ~threads:(List.init 3 independent_writes_thread)
        ()
    with
    | Explore.Pass s -> s.Explore.schedules
    | Explore.Fail _ -> Alcotest.fail "independent writes cannot fail"
  in
  let with_por = count true and without = count false in
  check Alcotest.bool
    (Printf.sprintf "POR %d < naive %d" with_por without)
    true
    (with_por < without)

(* Interleavings with POR off: the explorer runs every order-preserving
   merge of the threads' steps once, so it doubles as the naive
   enumerator the [mc/por] VCs measure POR against. *)

let naive = { Explore.default_config with por = false }

let test_interleave_multinomial_count () =
  (* The closed form the [mc/por] VCs compare exploration against. *)
  check Alcotest.int "3 merges of 2+1" 3 (Mc_check.count_merges [ 2; 1 ]);
  check Alcotest.int "C(4,2)" 6 (Mc_check.count_merges [ 2; 2 ]);
  check Alcotest.int "one thread" 1 (Mc_check.count_merges [ 3 ]);
  check Alcotest.int "3 x 4 workload" 34_650 (Mc_check.count_merges [ 4; 4; 4 ])

let test_interleave_merge_count () =
  let schedules ~make ~threads =
    match Explore.run ~config:naive ~make ~threads () with
    | Explore.Pass s -> s.Explore.schedules
    | Explore.Fail _ -> Alcotest.fail "no final check, nothing can fail"
  in
  check Alcotest.int "2+2 steps" (Mc_check.count_merges [ 2; 2 ])
    (schedules ~make:(fun ctx -> Explore.var ctx 0) ~threads:lost_update_threads);
  check Alcotest.int "2+2+2 steps" (Mc_check.count_merges [ 2; 2; 2 ])
    (schedules ~make:independent_writes_make
       ~threads:(List.init 3 independent_writes_thread))

let test_interleave_finds_lost_update () =
  (* Collect the final counter of every interleaving of two non-atomic
     increments: some lose an update, some do not. *)
  let finals = ref [] in
  match
    Explore.run ~config:naive
      ~make:(fun ctx -> Explore.var ctx 0)
      ~threads:lost_update_threads
      ~final:(fun v ->
        finals := Explore.peek v :: !finals;
        None)
      ()
  with
  | Explore.Pass s ->
      check Alcotest.bool "complete" true s.Explore.complete;
      check Alcotest.bool "race found (lost update)" true (List.mem 1 !finals);
      check Alcotest.bool "correct case found" true (List.mem 2 !finals)
  | Explore.Fail _ -> Alcotest.fail "the final check never fails"

let test_interleave_reports_violating_schedule () =
  let make ctx = Explore.var ctx ~name:"x" 0 in
  let inc v ctx = ignore (Explore.update ctx v (fun x -> x + 1)) in
  let final v = if Explore.peek v < 2 then None else Some "x reached 2" in
  match Explore.run ~config:naive ~make ~threads:[ inc; inc ] ~final () with
  | Explore.Fail (f, _) ->
      check Alcotest.int "both steps in the schedule" 2
        (List.length f.Explore.schedule);
      check Alcotest.bool "message rendered" true
        (let text = Explore.render_failure f and sub = "x reached 2" in
         let n = String.length sub in
         let rec at i =
           i + n <= String.length text && (String.sub text i n = sub || at (i + 1))
         in
         at 0);
      check Alcotest.bool "schedule replays" true
        (Explore.replay ~make ~threads:[ inc; inc ] ~final
           ~schedule:f.Explore.schedule ()
        <> None)
  | Explore.Pass _ -> Alcotest.fail "invariant violation must be reported"

let test_interleave_limit_trips () =
  let config = { naive with max_schedules = 5 } in
  let thread v ctx =
    for _ = 1 to 10 do
      ignore (Explore.read ctx v)
    done
  in
  match
    Explore.run ~config
      ~make:(fun ctx -> Explore.var ctx 0)
      ~threads:[ thread; thread; thread ] ()
  with
  | Explore.Pass s ->
      check Alcotest.bool "capped" true s.Explore.capped;
      check Alcotest.bool "not complete" false s.Explore.complete;
      check Alcotest.int "stopped at the cap" 5 s.Explore.schedules
  | Explore.Fail _ -> Alcotest.fail "no invariant should fail"

let test_interleave_capped_is_typed () =
  (* [Explore.vc] reports a capped exploration as [Vc.Capped], never as
     proved; the same workload uncapped proves. *)
  let vc config =
    Explore.vc ~id:"capped" ~category:"t" ~config ~make:independent_writes_make
      ~threads:(List.init 3 independent_writes_thread)
      ()
  in
  (match (vc { naive with max_schedules = 5 }).Vc.check () with
  | Vc.Capped _ -> ()
  | o -> Alcotest.failf "expected capped, got %a" Vc.pp_outcome o);
  check outcome_testable "uncapped proves" Vc.Proved ((vc naive).Vc.check ())

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
      ( "parallel discharge",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_discharge_parallel_matches_sequential;
          Alcotest.test_case "all six suites agree" `Slow
            test_discharge_all_suites_parallel;
          Alcotest.test_case "timeout interrupts divergent VC" `Quick
            test_discharge_timeout_interrupts_divergent;
          Alcotest.test_case "timeout isolates one VC in a parallel run" `Quick
            test_discharge_timeout_parallel_leaves_others;
          Alcotest.test_case "budget does not leak" `Quick
            test_discharge_budget_does_not_leak;
          Alcotest.test_case "wall time recorded" `Quick
            test_wall_time_recorded;
          Alcotest.test_case "raising VC is falsified" `Quick
            test_discharge_raising_vc;
          Alcotest.test_case "nonpositive jobs run as one" `Quick
            test_discharge_nonpositive_jobs;
          Alcotest.test_case "divergent VC on the caller" `Quick
            test_discharge_divergent_on_caller;
        ] );
      ( "pool",
        [
          Alcotest.test_case "run preserves order" `Quick
            test_pool_run_preserves_order;
          Alcotest.test_case "map matches sequential" `Quick
            test_pool_map_matches_sequential;
          Alcotest.test_case "empty and oversubscribed" `Quick
            test_pool_empty_and_oversubscribed;
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
          Alcotest.test_case "merge count" `Quick test_interleave_merge_count;
          Alcotest.test_case "multinomial count" `Quick
            test_interleave_multinomial_count;
          Alcotest.test_case "finds lost update" `Quick
            test_interleave_finds_lost_update;
          Alcotest.test_case "reports violating schedule" `Quick
            test_interleave_reports_violating_schedule;
          Alcotest.test_case "limit trips" `Quick test_interleave_limit_trips;
          Alcotest.test_case "capped is typed" `Quick
            test_interleave_capped_is_typed;
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
