(* Virtual-time event queue and fiber scheduler, contention-model tests,
   shape properties of the NR latency simulator (the machinery behind
   Figures 1b/1c), and cross-version pins of the simulations built on
   them. *)

module Vtime = Bi_core.Vtime
module Heap = Bi_core.Vtime.Heap
module Contention = Bi_sim.Contention
module Nr_sim = Bi_nr.Nr_sim

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* The event heap *)

let rec drain h = match Heap.pop h with None -> [] | Some p -> p :: drain h

let test_des_time_order () =
  let h = Heap.create 0 in
  List.iter (fun t -> Heap.push h ~time:t t) [ 30; 10; 20 ];
  check (Alcotest.list Alcotest.int) "time order" [ 10; 20; 30 ]
    (List.map snd (drain h))

let test_des_fifo_at_equal_times () =
  let h = Heap.create "" in
  List.iter (fun x -> Heap.push h ~time:5 x) [ "a"; "b"; "c" ];
  Heap.push h ~time:4 "first";
  check (Alcotest.list Alcotest.string) "fifo ties" [ "first"; "a"; "b"; "c" ]
    (List.map snd (drain h))

(* A fiber's clock reads its wake time. *)
let test_des_now_advances () =
  let s = Vtime.make () in
  let seen = ref (-1) in
  Vtime.spawn s (fun () ->
      Vtime.sleep 42;
      seen := Vtime.now s);
  let final = Vtime.run ~tick:ignore s in
  check Alcotest.int "clock at wake time" 42 !seen;
  check Alcotest.int "run returns the final round" 42 final

(* A pop loop with a local clock, as Nr_sim drives the heap: events may
   schedule further events relative to the current time. *)
let test_des_nested_scheduling () =
  let h = Heap.create ignore in
  let clock = ref 0 in
  let log = ref [] in
  Heap.push h ~time:1 (fun () ->
      log := 1 :: !log;
      Heap.push h ~time:(!clock + 5) (fun () -> log := 6 :: !log));
  Heap.push h ~time:3 (fun () -> log := 3 :: !log);
  let rec loop () =
    match Heap.pop h with
    | None -> ()
    | Some (t, f) ->
        clock := t;
        f ();
        loop ()
  in
  loop ();
  check (Alcotest.list Alcotest.int) "interleaved" [ 1; 3; 6 ] (List.rev !log);
  check Alcotest.int "clock at last event" 6 !clock

(* The reference the heap must match: a sorted list of (time, seq)
   entries, popped from the head.  Each entry's payload is its seq, so a
   heap pop must equal the list's head. *)
let rec oracle_insert e = function
  | [] -> [ e ]
  | hd :: tl -> if e < hd then e :: hd :: tl else hd :: oracle_insert e tl

(* Ops: [Some t] pushes at time t, [None] pops.  1030 pushes come first,
   so the heap outgrows its initial 1024 slots before the interleaving
   starts; narrow times force plenty of ties. *)
let heap_ops_gen =
  QCheck2.Gen.(
    list_size (int_range 500 1500)
      (frequency [ (3, map Option.some (int_range 0 40)); (1, pure None) ]))

let heap_matches_oracle ops =
  let h = Heap.create (-1) in
  let step (q, seq, live, ok) = function
    | Some t ->
        Heap.push h ~time:t seq;
        (oracle_insert (t, seq) q, seq + 1, max live (List.length q + 1), ok)
    | None -> (
        match q with
        | [] -> (q, seq, live, ok && Heap.pop h = None)
        | e :: tl -> (tl, seq, live, ok && Heap.pop h = Some e))
  in
  let prefix = List.init 1030 (fun i -> Some (i * 7919 mod 41)) in
  let q, _, live, ok = List.fold_left step ([], 0, 0, true) (prefix @ ops) in
  ok && live > 1024 && drain h = q

(* ------------------------------------------------------------------ *)
(* The fiber scheduler *)

let test_sleep_zero_next_round () =
  let s = Vtime.make () in
  let seen = ref [] in
  Vtime.spawn s (fun () ->
      let t0 = Vtime.now s in
      Vtime.sleep 0;
      let t1 = Vtime.now s in
      Vtime.sleep (-3);
      seen := [ t0; t1; Vtime.now s ]);
  ignore (Vtime.run ~tick:ignore s);
  check (Alcotest.list Alcotest.int) "clamped to one round" [ 0; 1; 2 ] !seen

let test_max_rounds_raises () =
  let s = Vtime.make () in
  let ticks = ref 0 in
  Vtime.spawn s (fun () -> Vtime.sleep 100);
  (match Vtime.run ~max_rounds:10 ~tick:(fun () -> incr ticks) s with
  | _ -> Alcotest.fail "a fiber past the round bound must fail the run"
  | exception Failure _ -> ());
  check Alcotest.int "one tick per round up to the bound" 10 !ticks

let test_equal_wakes_spawn_order () =
  let s = Vtime.make () in
  let log = ref [] in
  let fiber id () =
    for _ = 1 to 2 do
      Vtime.sleep 5;
      log := (id, Vtime.now s) :: !log
    done
  in
  List.iter (fun id -> Vtime.spawn s (fiber id)) [ 1; 2; 3 ];
  ignore (Vtime.run ~tick:ignore s);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "spawn order at every shared wake"
    [ (1, 5); (2, 5); (3, 5); (1, 10); (2, 10); (3, 10) ]
    (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Cross-version pins: exact outputs of the simulations on Vtime.  Any
   change to an event order shows up here; floats print exactly (%h). *)

let pins =
  let pin name expected f =
    Alcotest.test_case name `Quick (fun () ->
        check Alcotest.string name expected (f ()))
  in
  [
    pin "rs positive_control" "true true [drop] true" (fun () ->
        let open Bi_app.Rs_check in
        let c = positive_control () in
        Format.asprintf "%b %b [%a] %b" c.plain_failed c.resilient_ok
          (Format.pp_print_list Bi_fault.Fault_plan.pp_decision)
          c.shrunk c.replay_fails);
    pin "engine default"
      "1000 4000 26706 266 26440 3734 0 815 0x1.4e36a7bc26f32p-2 0x1.7ep+7 \
       0x1.75p+8 0x1.96p+8 0x1.7e6fa39be8e7p+7 0x1.96p+8 64 64 181 0 true"
      (fun () ->
        let open Bi_load.Engine in
        let s = run default in
        Printf.sprintf "%d %d %d %d %d %d %d %d %h %h %h %h %h %h %d %d %d %d %b"
          s.clients s.issued s.attempts s.completed s.shed s.gave_up s.errors
          s.duration s.throughput s.p50 s.p99 s.p999 s.mean_latency
          s.max_latency s.max_queue s.total_capacity s.applied
          s.min_client_completed s.invariants_ok);
    pin "nr_sim default"
      "0x1.bd5e518f3ecccp+2 0x1.beab367a0f909p+2 0x1.c94467381d7dcp+2 \
       0x1.300b64a5d9a67p+0 0x1p+1"
      (fun () ->
        let open Nr_sim in
        let r = run default_config in
        Printf.sprintf "%h %h %h %h %h" r.mean_latency_us r.p50_us r.p99_us
          r.throughput_mops r.mean_batch);
  ]

(* ------------------------------------------------------------------ *)
(* Contention *)

let test_busy_resource_serializes () =
  let r = Contention.Busy_resource.create () in
  let e1 = Contention.Busy_resource.acquire r ~now:0 ~hold_for:10 in
  check Alcotest.int "first ends at 10" 10 e1;
  let e2 = Contention.Busy_resource.acquire r ~now:3 ~hold_for:10 in
  check Alcotest.int "second queued behind first" 20 e2;
  let e3 = Contention.Busy_resource.acquire r ~now:50 ~hold_for:5 in
  check Alcotest.int "idle gap honoured" 55 e3

let test_busy_resource_is_busy () =
  let r = Contention.Busy_resource.create () in
  ignore (Contention.Busy_resource.acquire r ~now:0 ~hold_for:10);
  check Alcotest.bool "busy inside hold" true
    (Contention.Busy_resource.is_busy r ~now:5);
  check Alcotest.bool "free after hold" false
    (Contention.Busy_resource.is_busy r ~now:10)

let test_batcher () =
  let b = Contention.Batcher.create () in
  check Alcotest.int "positions" 0 (Contention.Batcher.join b "a");
  check Alcotest.int "positions" 1 (Contention.Batcher.join b "b");
  check Alcotest.int "size" 2 (Contention.Batcher.size b);
  check (Alcotest.list Alcotest.string) "drain order" [ "a"; "b" ]
    (Contention.Batcher.drain b);
  check Alcotest.int "empty after drain" 0 (Contention.Batcher.size b)

(* ------------------------------------------------------------------ *)
(* Nr_sim shape properties *)

let quick_cfg =
  { Nr_sim.default_config with Nr_sim.ops_per_core = 100; apply_cycles = 2000 }

let test_nr_sim_monotone_in_cores () =
  let results = Nr_sim.sweep quick_cfg ~cores:[ 1; 4; 8; 16 ] in
  let rec mono = function
    | (_, a) :: ((_, b) :: _ as rest) ->
        a.Nr_sim.mean_latency_us <= b.Nr_sim.mean_latency_us *. 1.05
        && mono rest
    | _ -> true
  in
  check Alcotest.bool "latency grows with cores" true (mono results)

let test_nr_sim_shootdown_costs () =
  let base = Nr_sim.run { quick_cfg with Nr_sim.cores = 8 } in
  let shot =
    Nr_sim.run { quick_cfg with Nr_sim.cores = 8; shootdown = true }
  in
  check Alcotest.bool "shootdown adds latency" true
    (shot.Nr_sim.mean_latency_us > base.Nr_sim.mean_latency_us)

let test_nr_sim_apply_cost_scales () =
  let cheap = Nr_sim.run { quick_cfg with Nr_sim.apply_cycles = 500 } in
  let dear = Nr_sim.run { quick_cfg with Nr_sim.apply_cycles = 5000 } in
  check Alcotest.bool "apply cost dominates" true
    (dear.Nr_sim.mean_latency_us > (2. *. cheap.Nr_sim.mean_latency_us))

let test_nr_sim_all_ops_complete () =
  let r = Nr_sim.run { quick_cfg with Nr_sim.cores = 4; ops_per_core = 50 } in
  check Alcotest.bool "throughput positive" true (r.Nr_sim.throughput_mops > 0.);
  check Alcotest.bool "p99 >= p50" true (r.Nr_sim.p99_us >= r.Nr_sim.p50_us);
  check Alcotest.bool "batching observed" true (r.Nr_sim.mean_batch >= 1.

  )

let test_nr_sim_batch_grows_with_cores () =
  let small = Nr_sim.run { quick_cfg with Nr_sim.cores = 1 } in
  let big = Nr_sim.run { quick_cfg with Nr_sim.cores = 16 } in
  check Alcotest.bool "bigger batches under load" true
    (big.Nr_sim.mean_batch > small.Nr_sim.mean_batch)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bi_sim"
    [
      ( "des",
        [
          Alcotest.test_case "time order" `Quick test_des_time_order;
          Alcotest.test_case "fifo ties" `Quick test_des_fifo_at_equal_times;
          Alcotest.test_case "now advances" `Quick test_des_now_advances;
          Alcotest.test_case "nested scheduling" `Quick test_des_nested_scheduling;
        ] );
      ( "vtime",
        [
          QCheck_alcotest.to_alcotest
            (QCheck2.Test.make ~name:"heap matches sorted-list oracle"
               ~count:30 heap_ops_gen heap_matches_oracle);
          Alcotest.test_case "sleep 0 wakes next round" `Quick
            test_sleep_zero_next_round;
          Alcotest.test_case "max_rounds raises" `Quick test_max_rounds_raises;
          Alcotest.test_case "equal wakes resume in spawn order" `Quick
            test_equal_wakes_spawn_order;
        ] );
      ("pins", pins);
      ( "contention",
        [
          Alcotest.test_case "busy resource serializes" `Quick test_busy_resource_serializes;
          Alcotest.test_case "is_busy" `Quick test_busy_resource_is_busy;
          Alcotest.test_case "batcher" `Quick test_batcher;
        ] );
      ( "nr_sim",
        [
          Alcotest.test_case "monotone in cores" `Quick test_nr_sim_monotone_in_cores;
          Alcotest.test_case "shootdown costs" `Quick test_nr_sim_shootdown_costs;
          Alcotest.test_case "apply cost scales" `Quick test_nr_sim_apply_cost_scales;
          Alcotest.test_case "ops complete" `Quick test_nr_sim_all_ops_complete;
          Alcotest.test_case "batch grows with cores" `Quick test_nr_sim_batch_grows_with_cores;
        ] );
    ]
