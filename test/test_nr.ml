(* Node-replication tests: the log, the readers-writer lock, sequential
   equivalence of the replicated structure, replica convergence, and the
   linearizability of real concurrent (two-domain) histories — the
   executable analogue of the IronSync NR proof the paper builds on. *)

module Log = Bi_nr.Log
module Rwlock = Bi_nr.Rwlock

let check = Alcotest.check

let qtest name count gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

(* ------------------------------------------------------------------ *)
(* Log *)

let test_log_append_get () =
  let log = Log.create ~capacity:16 in
  let e op = { Log.op; replica = 0; slot = 0 } in
  let start = Log.append log [ e "a"; e "b" ] in
  check Alcotest.int "starts at 0" 0 start;
  check Alcotest.int "tail" 2 (Log.tail log);
  check Alcotest.string "entry 0" "a" (Log.get log 0).Log.op;
  check Alcotest.string "entry 1" "b" (Log.get log 1).Log.op

let test_log_append_empty () =
  let log = Log.create ~capacity:4 in
  ignore (Log.append log []);
  check Alcotest.int "empty append no-op" 0 (Log.tail log)

let test_log_full () =
  let log = Log.create ~capacity:2 in
  let e = { Log.op = 0; replica = 0; slot = 0 } in
  ignore (Log.append log [ e; e ]);
  match Log.append log [ e ] with
  | exception Log.Full -> ()
  | _ -> Alcotest.fail "capacity must be enforced"

let test_log_full_leaves_tail_consistent () =
  (* Regression: append used to fetch-and-add the tail before the
     capacity check, so a failed append left the tail pointing past slots
     that would never be written and readers spun forever on them. *)
  let log = Log.create ~capacity:4 in
  let e op = { Log.op; replica = 0; slot = 0 } in
  ignore (Log.append log [ e 1; e 2; e 3 ]);
  (match Log.append log [ e 4; e 5 ] with
  | exception Log.Full -> ()
  | _ -> Alcotest.fail "over-capacity append must raise Full");
  check Alcotest.int "tail not advanced by failed append" 3 (Log.tail log);
  for i = 0 to 2 do
    check Alcotest.int
      (Printf.sprintf "entry %d still readable" i)
      (i + 1)
      (Log.get log i).Log.op
  done;
  (* The slots the failed batch did not consume remain usable. *)
  check Alcotest.int "fitting append reuses the space" 3
    (Log.append log [ e 4 ]);
  check Alcotest.int "tail" 4 (Log.tail log);
  check Alcotest.int "entry 3" 4 (Log.get log 3).Log.op

let test_log_get_bounds () =
  let log = Log.create ~capacity:4 in
  match Log.get log 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "get past tail must fail"

let test_log_concurrent_append () =
  (* Two domains appending concurrently: all entries present, none lost. *)
  let log = Log.create ~capacity:10_000 in
  let append_many replica () =
    for i = 0 to 999 do
      ignore (Log.append log [ { Log.op = (replica * 1000) + i; replica; slot = 0 } ])
    done
  in
  let d1 = Domain.spawn (append_many 0) in
  let d2 = Domain.spawn (append_many 1) in
  Domain.join d1;
  Domain.join d2;
  check Alcotest.int "all entries reserved" 2000 (Log.tail log);
  let seen = Hashtbl.create 2000 in
  for i = 0 to 1999 do
    Hashtbl.replace seen (Log.get log i).Log.op ()
  done;
  check Alcotest.int "no entry lost or duplicated" 2000 (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* Circular log *)

let test_ring_laps () =
  (* A capacity-4 log driven round several laps, the head kept as far
     back as the room each batch needs: every live index reads its own
     entry, and an index whose slot has been reused is refused. *)
  let log = Log.create ~capacity:4 in
  let e op = { Log.op; replica = 0; slot = 0 } in
  List.iter
    (fun n ->
      let start = Log.tail log in
      Log.advance log (max (Log.head log) (start + n - 4));
      check Alcotest.int "append returns the reserved index" start
        (Log.append log (List.init n (fun k -> e (start + k))));
      for i = Log.head log to Log.tail log - 1 do
        check Alcotest.int (Printf.sprintf "entry %d" i) i (Log.get log i).Log.op
      done)
    [ 1; 3; 2; 4; 1; 2; 3; 1; 4; 2 ];
  check Alcotest.int "tail counts every entry" 23 (Log.tail log);
  match Log.get log 18 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an overwritten index must be refused"

let test_ring_full_until_slowest_advances () =
  let log = Log.create ~capacity:4 in
  let e op = { Log.op; replica = 0; slot = 0 } in
  let full what batch =
    match Log.append log batch with
    | exception Log.Full -> ()
    | _ -> Alcotest.failf "%s: append must raise Full" what
  in
  ignore (Log.append log [ e 0; e 1; e 2; e 3 ]);
  full "no replica has replayed" [ e 4 ];
  Log.advance log 0;
  full "slowest replica still at 0" [ e 4 ];
  Log.advance log 1;
  check Alcotest.int "room once the slowest passed entry 0" 4
    (Log.append log [ e 4 ]);
  check Alcotest.int "entry 4 reuses slot 0" 4 (Log.get log 4).Log.op;
  for i = 1 to 3 do
    check Alcotest.int "unreplayed entries untouched" i (Log.get log i).Log.op
  done;
  full "ring full again" [ e 5 ];
  Log.advance log 3;
  full "a batch past head + capacity" [ e 5; e 6; e 7 ];
  check Alcotest.int "two slots freed" 5 (Log.append log [ e 5; e 6 ]);
  check Alcotest.int "tail" 7 (Log.tail log);
  match Log.advance log 8 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "head must not pass the tail"

let test_ring_mc_model () =
  (* The mc model of the ring proves under its real reclamation rule and
     is falsified by a mutant that reclaims past the slowest replica. *)
  (match Bi_nr.Nr_mc.log_ring ~reclaim:(fun ~slowest ~tail:_ -> slowest) with
  | Bi_core.Explore.Pass _ -> ()
  | Bi_core.Explore.Fail _ -> Alcotest.fail "real reclamation rule falsified");
  match Bi_nr.Nr_mc.log_ring ~reclaim:(fun ~slowest:_ ~tail -> tail) with
  | Bi_core.Explore.Fail ({ Bi_core.Explore.kind = Assertion msg; _ }, _) ->
      let prefix = "entry 0 overwritten" in
      check Alcotest.string "overwrite before replay found" prefix
        (String.sub msg 0 (min (String.length msg) (String.length prefix)))
  | Bi_core.Explore.Fail _ | Bi_core.Explore.Pass _ ->
      Alcotest.fail "reclaiming past the slowest replica must be caught"

(* ------------------------------------------------------------------ *)
(* Rwlock *)

let test_rwlock_basic () =
  let l = Rwlock.create () in
  Rwlock.acquire_read l;
  Rwlock.acquire_read l;
  check Alcotest.int "two readers" 2 (Rwlock.readers l);
  check Alcotest.bool "writer blocked by readers" false (Rwlock.try_acquire_write l);
  Rwlock.release_read l;
  Rwlock.release_read l;
  check Alcotest.bool "writer after release" true (Rwlock.try_acquire_write l);
  check Alcotest.bool "second writer blocked" false (Rwlock.try_acquire_write l);
  Rwlock.release_write l

let test_rwlock_bracket () =
  let l = Rwlock.create () in
  (try Rwlock.with_write l (fun () -> failwith "boom") with Failure _ -> ());
  check Alcotest.bool "released after exception" true (Rwlock.try_acquire_write l);
  Rwlock.release_write l

let test_rwlock_mutual_exclusion_domains () =
  let l = Rwlock.create () in
  let counter = ref 0 in
  let writer () =
    for _ = 1 to 5000 do
      Rwlock.acquire_write l;
      (* Non-atomic read-modify-write: only safe under the lock. *)
      let v = !counter in
      counter := v + 1;
      Rwlock.release_write l
    done
  in
  let d1 = Domain.spawn writer and d2 = Domain.spawn writer in
  Domain.join d1;
  Domain.join d2;
  check Alcotest.int "no lost updates" 10_000 !counter

(* ------------------------------------------------------------------ *)
(* NR over a KV map, sequential equivalence                            *)

module Kv = struct
  type t = (int, int) Hashtbl.t
  type op = Put of int * int | Get of int | Delete of int | Size
  type ret = Unit | Found of int option | Count of int

  let create () = Hashtbl.create 16

  let apply t = function
    | Put (k, v) ->
        Hashtbl.replace t k v;
        Unit
    | Get k -> Found (Hashtbl.find_opt t k)
    | Delete k ->
        Hashtbl.remove t k;
        Unit
    | Size -> Count (Hashtbl.length t)

  include Bi_nr.Seq_ds.Batch_of_apply (struct
    type nonrec t = t
    type nonrec op = op
    type nonrec ret = ret

    let apply = apply
  end)

  let is_read_only = function
    | Get _ | Size -> true
    | Put _ | Delete _ -> false
end

module Nr_kv = Bi_nr.Nr.Make (Kv)

let gen_kv_op =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun k v -> Kv.Put (k, v)) (int_bound 20) (int_bound 1000);
        map (fun k -> Kv.Get k) (int_bound 20);
        map (fun k -> Kv.Delete k) (int_bound 20);
        return Kv.Size;
      ])

let prop_nr_sequential_equivalence =
  qtest "NR behaves like the plain sequential structure" 60
    QCheck2.Gen.(list_size (int_range 1 120) gen_kv_op)
    (fun ops ->
      let nr = Nr_kv.create ~replicas:2 ~threads_per_replica:2 () in
      let plain = Kv.create () in
      List.for_all
        (fun op -> Nr_kv.execute nr ~thread:0 op = Kv.apply plain op)
        ops)

let prop_nr_replicas_converge =
  qtest "replicas converge after sync_all" 40
    QCheck2.Gen.(list_size (int_range 1 80) gen_kv_op)
    (fun ops ->
      let nr = Nr_kv.create ~replicas:3 ~threads_per_replica:2 () in
      List.iteri
        (fun i op -> ignore (Nr_kv.execute nr ~thread:(i mod 6) op))
        ops;
      Nr_kv.sync_all nr;
      let dump r =
        Nr_kv.peek nr ~replica:r (fun t ->
            List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []))
      in
      dump 0 = dump 1 && dump 0 = dump 2)

let test_nr_read_ops_skip_log () =
  let nr = Nr_kv.create () in
  ignore (Nr_kv.execute nr ~thread:0 (Kv.Put (1, 10)));
  let entries_before = Nr_kv.log_entries nr in
  ignore (Nr_kv.execute nr ~thread:0 (Kv.Get 1));
  ignore (Nr_kv.execute nr ~thread:0 Kv.Size);
  check Alcotest.int "reads not logged" entries_before (Nr_kv.log_entries nr)

let test_nr_read_sees_own_writes () =
  let nr = Nr_kv.create ~replicas:2 ~threads_per_replica:2 () in
  ignore (Nr_kv.execute nr ~thread:0 (Kv.Put (7, 70)));
  (* A thread on the *other* replica must observe the write. *)
  check Alcotest.bool "cross-replica visibility" true
    (Nr_kv.execute nr ~thread:2 (Kv.Get 7) = Kv.Found (Some 70))

let test_nr_bad_thread_rejected () =
  let nr = Nr_kv.create ~replicas:1 ~threads_per_replica:1 () in
  match Nr_kv.execute nr ~thread:5 Kv.Size with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "thread id must be validated"

(* ------------------------------------------------------------------ *)
(* Concurrent linearizability of real histories                        *)

module Counter = Bi_nr.Counter

module Nr_counter = Bi_nr.Nr.Make (Counter)

let test_nr_concurrent_linearizable () =
  (* Drive NR from two domains, recording timed call events, then search
     for a sequential witness. *)
  let nr = Nr_counter.create ~replicas:2 ~threads_per_replica:2 () in
  let history =
    Counter.two_domain_history ~calls:40
      ~op:(fun i -> if i mod 4 = 3 then Counter.Read else Counter.Incr)
      (Nr_counter.execute nr)
  in
  check Alcotest.int "all events recorded" 80 (List.length history);
  check Alcotest.bool "history linearizable" true
    (Counter.Lin.check ~init:0 history)

let test_nr_concurrent_total () =
  let nr = Nr_counter.create ~replicas:2 ~threads_per_replica:4 () in
  let n_domains = 2 and per = 500 in
  let worker thread () =
    for _ = 1 to per do
      ignore (Nr_counter.execute nr ~thread Counter.Incr : int)
    done
  in
  let domains = List.init n_domains (fun i -> Domain.spawn (worker (i * 4))) in
  List.iter Domain.join domains;
  Nr_counter.sync_all nr;
  check Alcotest.int "no increment lost" (n_domains * per)
    (Nr_counter.peek nr ~replica:0 (fun c -> !c));
  check Alcotest.int "log holds every update" (n_domains * per)
    (Nr_counter.log_entries nr)

let test_nr_dormant_replica () =
  (* Replica 1 never combines.  Its lag would fill an 8-slot log after 8
     updates; the appender replays it instead, so 1,000 updates go
     through replica 0 and the replicas converge. *)
  let nr =
    Nr_counter.create ~replicas:2 ~threads_per_replica:2 ~log_capacity:8 ()
  in
  for i = 1 to 1000 do
    check Alcotest.int "update result" i
      (Nr_counter.execute nr ~thread:0 Counter.Incr)
  done;
  check Alcotest.int "log indices stay monotone" 1000
    (Nr_counter.log_entries nr);
  check Alcotest.bool "dormant replica lags by at most the capacity" true
    (Nr_counter.peek nr ~replica:1 (fun c -> !c) >= 1000 - 8);
  Nr_counter.sync_all nr;
  check Alcotest.int "replica 0" 1000 (Nr_counter.peek nr ~replica:0 (fun c -> !c));
  check Alcotest.int "replica 1" 1000 (Nr_counter.peek nr ~replica:1 (fun c -> !c));
  (* Runs of 13 updates from alternating replicas: at each switch the
     appender's own replica is the slowest, and it must replay itself. *)
  for i = 1001 to 2000 do
    let thread = if i / 13 mod 2 = 0 then 0 else 2 in
    check Alcotest.int "alternating update result" i
      (Nr_counter.execute nr ~thread Counter.Incr)
  done;
  Nr_counter.sync_all nr;
  for replica = 0 to 1 do
    check Alcotest.int "replicas converge" 2000
      (Nr_counter.peek nr ~replica (fun c -> !c))
  done;
  match Nr_counter.create ~threads_per_replica:8 ~log_capacity:4 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a log smaller than one batch must be rejected"

let test_nr_ring_two_domains () =
  (* Two domains appending through a 4-slot log: every combiner batch
     fills it, so reclaiming (replaying the other replica under its
     writer lock) runs concurrently with that replica's own combiner. *)
  let nr =
    Nr_counter.create ~replicas:2 ~threads_per_replica:2 ~log_capacity:4 ()
  in
  let per = 2000 in
  let worker thread () =
    for _ = 1 to per do
      ignore (Nr_counter.execute nr ~thread Counter.Incr : int)
    done
  in
  let domains = List.map (fun t -> Domain.spawn (worker t)) [ 0; 2 ] in
  List.iter Domain.join domains;
  Nr_counter.sync_all nr;
  check Alcotest.int "log indices count every update" (2 * per)
    (Nr_counter.log_entries nr);
  for replica = 0 to 1 do
    check Alcotest.int "no increment lost" (2 * per)
      (Nr_counter.peek nr ~replica (fun c -> !c))
  done;
  let history =
    Counter.two_domain_history ~calls:40
      ~op:(fun i -> if i mod 4 = 3 then Counter.Read else Counter.Incr)
      (Nr_counter.execute
         (Nr_counter.create ~replicas:2 ~threads_per_replica:2 ~log_capacity:2 ()))
  in
  check Alcotest.bool "history through a 2-slot log linearizable" true
    (Counter.Lin.check ~init:0 history)

let test_nr_combines_batch () =
  let nr = Nr_counter.create ~replicas:1 ~threads_per_replica:2 () in
  for _ = 1 to 100 do
    ignore (Nr_counter.execute nr ~thread:0 Counter.Incr : int)
  done;
  check Alcotest.bool "combiner invoked" true (Nr_counter.combines nr > 0)


(* Satellite regression: an empty-handed combiner pass must not count a
   combine or append to the log — under contention, a loser that takes
   the combiner lock after the winner drained every slot would otherwise
   inflate [combines] and touch the log for nothing. *)
let test_nr_empty_combine_not_counted () =
  let nr = Nr_counter.create ~replicas:1 ~threads_per_replica:2 () in
  check Alcotest.bool "kick with no requests" true (Nr_counter.kick nr ~replica:0);
  check Alcotest.int "no combine counted" 0 (Nr_counter.combines nr);
  check Alcotest.int "nothing appended" 0 (Nr_counter.log_entries nr);
  check Alcotest.int "nothing published" 0 (Nr_counter.publishes nr);
  (* Every counted combine appends at least one entry, so even under
     two-domain contention combines can never exceed entries. *)
  let worker thread () =
    for _ = 1 to 200 do
      ignore (Nr_counter.execute nr ~thread Counter.Incr : int)
    done
  in
  let d1 = Domain.spawn (worker 0) in
  let d2 = Domain.spawn (worker 1) in
  Domain.join d1;
  Domain.join d2;
  check Alcotest.int "no lost updates" 400 (Nr_counter.log_entries nr);
  check Alcotest.bool "combines bounded by entries" true
    (Nr_counter.combines nr > 0
    && Nr_counter.combines nr <= Nr_counter.log_entries nr)

let test_nr_submit_kick_drain_batch () =
  let nr = Nr_counter.create ~replicas:1 ~threads_per_replica:4 () in
  for i = 0 to 3 do
    Nr_counter.submit nr ~thread:i Counter.Incr
  done;
  check Alcotest.bool "became combiner" true (Nr_counter.kick nr ~replica:0);
  let rets = List.filter_map (fun i -> Nr_counter.drain nr ~thread:i) [ 0; 1; 2; 3 ] in
  check (Alcotest.list Alcotest.int) "every op answered, in slot order"
    [ 1; 2; 3; 4 ] rets;
  check Alcotest.int "one combine for the batch" 1 (Nr_counter.combines nr);
  check Alcotest.int "one publish for the window" 1 (Nr_counter.publishes nr);
  let stats = Nr_counter.batch_stats nr in
  check Alcotest.int "batch size recorded" 4 stats.Bi_nr.Nr.max_batch;
  check Alcotest.int "drained slots answer nothing twice" 0
    (List.length (List.filter_map (fun i -> Nr_counter.drain nr ~thread:i) [ 0; 1; 2; 3 ]))

(* ------------------------------------------------------------------ *)
(* The paper's kernel design point (Section 4.1): kernel state like the
   scheduler is written sequentially and made multicore by NR.  Our
   kernel's run queue satisfies Seq_ds.S as-is — replicate it and drive
   it from two domains. *)

module Nr_sched = Bi_nr.Nr.Make (Bi_kernel.Scheduler)

let test_scheduler_under_nr () =
  let nr = Nr_sched.create ~replicas:2 ~threads_per_replica:2 () in
  let dequeued = Array.make 2 [] in
  let worker idx thread () =
    let got = ref [] in
    for i = 0 to 199 do
      ignore
        (Nr_sched.execute nr ~thread
           (Bi_kernel.Scheduler.Enqueue ((thread * 1000) + i)));
      if i mod 2 = 1 then begin
        match Nr_sched.execute nr ~thread Bi_kernel.Scheduler.Dequeue with
        | Bi_kernel.Scheduler.Tid (Some tid) -> got := tid :: !got
        | Bi_kernel.Scheduler.Tid None -> ()
        | Bi_kernel.Scheduler.Unit | Bi_kernel.Scheduler.Len _ -> ()
      end
    done;
    dequeued.(idx) <- !got
  in
  let d1 = Domain.spawn (worker 0 0) in
  let d2 = Domain.spawn (worker 1 2) in
  Domain.join d1;
  Domain.join d2;
  Nr_sched.sync_all nr;
  (* Conservation: every enqueued tid is either dequeued exactly once or
     still queued; replicas agree on the remainder. *)
  let drained = dequeued.(0) @ dequeued.(1) in
  let remaining r = Nr_sched.peek nr ~replica:r Bi_kernel.Scheduler.to_list in
  check (Alcotest.list Alcotest.int) "replicas agree" (remaining 0) (remaining 1);
  let all = List.sort compare (drained @ remaining 0) in
  check Alcotest.int "nothing lost or duplicated" 400 (List.length all);
  check Alcotest.int "distinct tids" 400
    (List.length (List.sort_uniq compare all))

(* ------------------------------------------------------------------ *)
(* Nr_sim determinism: the simulator's only nondeterminism is the seeded
   jitter generator, so identical config ⇒ identical result, and a
   different seed perturbs only the jitter-derived latency fields. *)

let sim_result = Alcotest.testable
    (fun ppf (r : Bi_nr.Nr_sim.result) ->
      Format.fprintf ppf "{mean=%.6f p50=%.6f p99=%.6f thr=%.6f batch=%.3f}"
        r.Bi_nr.Nr_sim.mean_latency_us r.Bi_nr.Nr_sim.p50_us
        r.Bi_nr.Nr_sim.p99_us r.Bi_nr.Nr_sim.throughput_mops
        r.Bi_nr.Nr_sim.mean_batch)
    ( = )

let test_nr_sim_deterministic () =
  let cfg = Bi_nr.Nr_sim.default_config in
  check sim_result "same seed, same config, bit-identical result"
    (Bi_nr.Nr_sim.run cfg) (Bi_nr.Nr_sim.run cfg);
  let cfg' = { cfg with Bi_nr.Nr_sim.cores = 4; ops_per_core = 100 } in
  check sim_result "holds across configs" (Bi_nr.Nr_sim.run cfg')
    (Bi_nr.Nr_sim.run cfg')

let test_nr_sim_seed_perturbs_only_jitter () =
  let cfg = Bi_nr.Nr_sim.default_config in
  let a = Bi_nr.Nr_sim.run { cfg with Bi_nr.Nr_sim.seed = "seed-a" } in
  let b = Bi_nr.Nr_sim.run { cfg with Bi_nr.Nr_sim.seed = "seed-b" } in
  (* Latencies are jitter-derived and must move... *)
  check Alcotest.bool "distinct seeds shift latency" true
    (a.Bi_nr.Nr_sim.mean_latency_us <> b.Bi_nr.Nr_sim.mean_latency_us);
  (* ...but only within the configured noise amplitude: the structural
     outcome (work per op, batch shape) stays put. *)
  let close rel x y = Float.abs (x -. y) <= rel *. Float.max x y in
  check Alcotest.bool "mean within jitter band" true
    (close (4. *. cfg.Bi_nr.Nr_sim.jitter) a.Bi_nr.Nr_sim.mean_latency_us
       b.Bi_nr.Nr_sim.mean_latency_us);
  check Alcotest.bool "throughput within jitter band" true
    (close (4. *. cfg.Bi_nr.Nr_sim.jitter) a.Bi_nr.Nr_sim.throughput_mops
       b.Bi_nr.Nr_sim.throughput_mops)

let test_nr_sim_zero_jitter_seed_independent () =
  (* With the jitter amplitude at zero the seed must not matter at all:
     every remaining quantity is structural. *)
  let cfg = { Bi_nr.Nr_sim.default_config with Bi_nr.Nr_sim.jitter = 0. } in
  check sim_result "zero jitter erases the seed"
    (Bi_nr.Nr_sim.run { cfg with Bi_nr.Nr_sim.seed = "seed-a" })
    (Bi_nr.Nr_sim.run { cfg with Bi_nr.Nr_sim.seed = "seed-b" })

let () =
  Alcotest.run "bi_nr"
    [
      ( "log",
        [
          Alcotest.test_case "append/get" `Quick test_log_append_get;
          Alcotest.test_case "empty append" `Quick test_log_append_empty;
          Alcotest.test_case "full leaves tail consistent" `Quick
            test_log_full_leaves_tail_consistent;
          Alcotest.test_case "full" `Quick test_log_full;
          Alcotest.test_case "get bounds" `Quick test_log_get_bounds;
          Alcotest.test_case "concurrent append" `Quick test_log_concurrent_append;
        ] );
      ( "ring",
        [
          Alcotest.test_case "laps return every live entry" `Quick
            test_ring_laps;
          Alcotest.test_case "full until the slowest replica advances" `Quick
            test_ring_full_until_slowest_advances;
          Alcotest.test_case "mc model catches early reclamation" `Quick
            test_ring_mc_model;
          Alcotest.test_case "dormant replica cannot wedge an appender" `Quick
            test_nr_dormant_replica;
          Alcotest.test_case "two domains through a 4-slot log" `Quick
            test_nr_ring_two_domains;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "basic semantics" `Quick test_rwlock_basic;
          Alcotest.test_case "bracket releases" `Quick test_rwlock_bracket;
          Alcotest.test_case "mutual exclusion (domains)" `Quick
            test_rwlock_mutual_exclusion_domains;
        ] );
      ( "nr",
        [
          prop_nr_sequential_equivalence;
          prop_nr_replicas_converge;
          Alcotest.test_case "reads skip log" `Quick test_nr_read_ops_skip_log;
          Alcotest.test_case "cross-replica visibility" `Quick
            test_nr_read_sees_own_writes;
          Alcotest.test_case "bad thread rejected" `Quick test_nr_bad_thread_rejected;
        ] );
      ( "kernel-state",
        [
          Alcotest.test_case "kernel scheduler replicates with NR" `Quick
            test_scheduler_under_nr;
        ] );
      ( "vc-suite",
        [
          Alcotest.test_case "NR VC suite proves" `Quick (fun () ->
              let rep = Bi_core.Verifier.discharge (Bi_nr.Nr_check.vcs ()) in
              if not (Bi_core.Verifier.all_proved rep) then
                Alcotest.failf "%a"
                  (fun ppf () -> Bi_core.Verifier.pp_failures ppf rep)
                  ());
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "two-domain history linearizable" `Quick
            test_nr_concurrent_linearizable;
          Alcotest.test_case "no lost updates across domains" `Quick
            test_nr_concurrent_total;
          Alcotest.test_case "combiner batches" `Quick test_nr_combines_batch;
          Alcotest.test_case "empty combine not counted" `Quick
            test_nr_empty_combine_not_counted;
          Alcotest.test_case "submit/kick/drain batch" `Quick
            test_nr_submit_kick_drain_batch;
        ] );
      ( "sim",
        [
          Alcotest.test_case "same seed, identical result" `Quick
            test_nr_sim_deterministic;
          Alcotest.test_case "distinct seeds perturb only jitter" `Quick
            test_nr_sim_seed_perturbs_only_jitter;
          Alcotest.test_case "zero jitter is seed-independent" `Quick
            test_nr_sim_zero_jitter_seed_independent;
        ] );
    ]
