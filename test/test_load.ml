(* Workload-engine tests: seeded determinism (bit-identical streams and
   engine summaries), statistical soundness of the samplers, and small
   end-to-end engine runs with their conservation laws.  The deeper
   obligations — shed-never-half-applies, exactly-once under retry,
   no-starvation, linearizability under overload — live in the wl VC
   suite ([lib/load/wl_check.ml], `make wl`). *)

let check = Alcotest.check

module W = Bi_load.Workload
module E = Bi_load.Engine
module G = Bi_core.Gen

let sampler ?(seed = 5L) () =
  W.create ~n_keys:128 ~theta:1.1 ~service_xm:1.0 ~service_alpha:1.5
    ~service_cap:200. ~mean_gap:10. ~seed ()

(* ------------------------------------------------------------------ *)
(* Seeded determinism *)

let test_trace_bit_identical () =
  let t1 = W.trace ~n:10_000 (sampler ()) in
  let t2 = W.trace ~n:10_000 (sampler ()) in
  check Alcotest.bool "same seed, same trace" true (t1 = t2);
  let t3 = W.trace ~n:10_000 (sampler ~seed:6L ()) in
  check Alcotest.bool "different seed, different trace" true (t1 <> t3)

let small_cfg =
  {
    E.default with
    clients = 400;
    ops_per_client = 3;
    mode = E.Open { mean_gap = 600. };
    capacity = 16;
    nodes = 2;
    n_keys = 64;
    reservoir = 256;
    seed = 21L;
  }

let test_engine_summary_bit_identical () =
  (* The whole summary record — counters and float percentiles included —
     must be equal across runs: this is what makes a summary a
     reproducible artifact rather than a measurement. *)
  check Alcotest.bool "same config, same summary" true
    (E.run small_cfg = E.run small_cfg);
  check Alcotest.bool "seed changes the summary" true
    (E.run small_cfg <> E.run { small_cfg with E.seed = 22L })

(* ------------------------------------------------------------------ *)
(* Statistical soundness *)

let test_zipf_skew_matches_analytic () =
  let z = W.Zipf.create ~n:200 ~theta:1.1 in
  let g = G.create 77L in
  let draws = 40_000 in
  let counts = Array.make 200 0 in
  for _ = 1 to draws do
    let i = W.Zipf.sample z g in
    counts.(i) <- counts.(i) + 1
  done;
  List.iter
    (fun rank ->
      let emp = float_of_int counts.(rank) /. float_of_int draws in
      let ana = W.Zipf.prob z rank in
      check Alcotest.bool
        (Printf.sprintf "rank %d within 15%% of analytic" rank)
        true
        (Float.abs (emp -. ana) <= (0.15 *. ana) +. 0.002))
    [ 0; 1; 2 ];
  check Alcotest.bool "hot head beats cold tail" true
    (counts.(0) > counts.(50) && counts.(50) > counts.(199))

let test_burst_duty_cycle_exact () =
  let b = W.Burst.create ~on_len:3 ~off_len:7 in
  let on = ref 0 in
  for t = 0 to 99 do
    if W.Burst.in_on b ~time:t then incr on
  done;
  check Alcotest.int "3 on-ticks per 10-tick period" 30 !on;
  check (Alcotest.float 0.) "duty_cycle" 0.3 (W.Burst.duty_cycle b);
  (* defer lands every time inside an on phase, never in the past. *)
  for t = 0 to 99 do
    let d = W.Burst.defer b ~time:t in
    check Alcotest.bool "deferred into on phase" true
      (d >= t && W.Burst.in_on b ~time:d)
  done

let test_heavy_tail_ratio () =
  let p = W.Pareto.create ~cap:1e9 ~xm:1.0 ~alpha:1.5 () in
  let g = G.create 13L in
  let xs = List.init 30_000 (fun _ -> W.Pareto.sample p g) in
  let ratio =
    Bi_core.Stats.percentile 0.99 xs /. Bi_core.Stats.percentile 0.50 xs
  in
  let analytic = W.Pareto.quantile p 0.99 /. W.Pareto.quantile p 0.50 in
  check Alcotest.bool "p99/p50 in the analytic band" true
    (ratio >= 0.6 *. analytic && ratio <= 1.6 *. analytic)

(* ------------------------------------------------------------------ *)
(* Engine end-to-end *)

let test_engine_conservation () =
  let s = E.run small_cfg in
  check Alcotest.int "issued = clients * ops" (400 * 3) s.E.issued;
  check Alcotest.int "issued = completed + gave_up" s.E.issued
    (s.E.completed + s.E.gave_up);
  check Alcotest.int "attempts = completed + shed" s.E.attempts
    (s.E.completed + s.E.shed);
  check Alcotest.int "no unexpected errors" 0 s.E.errors;
  check Alcotest.bool "admission invariants held" true s.E.invariants_ok

let test_engine_bounded_queue_under_overload () =
  let s =
    E.run
      {
        small_cfg with
        E.nodes = 1;
        mode = E.Open { mean_gap = 450. };
        capacity = 8;
      }
  in
  check Alcotest.bool "overload actually sheds" true (s.E.shed > 0);
  check Alcotest.bool "queue memory bounded" true (s.E.max_queue <= 8)

let test_engine_closed_loop_everyone_finishes () =
  let s =
    E.run
      {
        small_cfg with
        E.clients = 64;
        ops_per_client = 2;
        mode = E.Closed { think = 3 };
        nodes = 1;
        capacity = 8;
        per_client = Some 2;
        retry_max = 40;
      }
  in
  check Alcotest.int "nobody gives up" 0 s.E.gave_up;
  check Alcotest.int "worst client completed everything" 2
    s.E.min_client_completed

let () =
  Alcotest.run "bi_load"
    [
      ( "determinism",
        [
          Alcotest.test_case "trace bit-identical" `Quick
            test_trace_bit_identical;
          Alcotest.test_case "engine summary bit-identical" `Quick
            test_engine_summary_bit_identical;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "zipf skew matches analytic" `Quick
            test_zipf_skew_matches_analytic;
          Alcotest.test_case "burst duty cycle exact" `Quick
            test_burst_duty_cycle_exact;
          Alcotest.test_case "heavy-tail p99/p50 band" `Quick
            test_heavy_tail_ratio;
        ] );
      ( "engine",
        [
          Alcotest.test_case "conservation laws" `Quick
            test_engine_conservation;
          Alcotest.test_case "bounded queue under overload" `Quick
            test_engine_bounded_queue_under_overload;
          Alcotest.test_case "closed loop: everyone finishes" `Quick
            test_engine_closed_loop_everyone_finishes;
        ] );
    ]
