(* The storage node's benchmark: put/get through netd on the kernel TCP
   path, netd crash-restart, and verification time.

     bench.exe --workload put|get|restart|verify --seed N --seconds S
               --trace 0|1 [--out DIR] [--tiny]

   Times are process CPU time, scaled by the host's speed as [Host]'s
   probes measure it (see host.ml).  With --trace 0 it measures the
   end-to-end metrics with every wrapper off.  With --trace 1 it reports
   the per-layer metrics instead, from three worlds: a fixed-size one
   under the kernel syscall trace (exact counts per seed), one with spans
   around each layer, and an untraced one to price the spans.  The last
   line of standard output is the JSON result; everything before it is
   for people. *)

module W = World

let pr fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted l = List.sort compare l

let quantile q = function
  | [] -> 0.
  | l ->
      let a = Array.of_list (sorted l) in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median = quantile 0.5

(* Each workload's tail percentile: the highest of these that keeps at
   least ten samples beyond it at the benchmark's run length. *)
let tail_pct = function
  | "put" | "get" -> 99.
  | "restart" -> 75.
  | _ -> 98.

let tail_ok pct n = float_of_int n *. (1. -. (pct /. 100.)) >= 10.

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

(* ------------------------------------------------------------------ *)
(* Metric catalogue: names and units exactly as BENCHMARK.json has them *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("latency_us_p50", "us");
    ("latency_us_tail", "us");
    ("heap_mb_live", "MB");
  ]

(* VC ids name per-layer metrics; metric names have no '/'. *)
let slug id = String.map (fun c -> if c = '/' then '.' else c) id

let kinds =
  [
    "open"; "close"; "read"; "write"; "seek"; "fstat"; "mkdir"; "unlink";
    "readdir"; "fsync"; "rename"; "tcp_listen"; "tcp_connect"; "tcp_accept";
    "tcp_send"; "tcp_recv"; "tcp_close"; "futex_wait"; "futex_wake";
    "thread_create"; "thread_join"; "spawn"; "wait"; "kill"; "mmap"; "sleep";
    "now"; "log";
  ]

let per_layer =
  [
    ("acks_per_kilotick", "1/ktick");
    ("rc.attempts_per_op", "count");
    ("rc.self_us", "us");
    ("nd_client.rpc_us", "us");
    ("kernel.syscalls_per_op.server", "count");
    ("kernel.syscalls_per_op.client", "count");
  ]
  @ List.map (fun k -> ("kernel.syscalls_per_op." ^ k, "count")) kinds
  @ [
      ("kernel.again_ratio", "ratio");
      ("kernel.transport_us", "us");
      ("net.bytes_copied_per_op", "B");
      ("net.copies_per_op", "count");
      ("req_queue.high_water", "count");
      ("netd.served_spread", "count");
      ("node_core.handle_us", "us");
      ("node_core.self_us", "us");
      ("node_core.applied", "count");
      ("node_core.dup_hits", "count");
      ("journal.append_us", "us");
      ("journal.bytes_per_put", "B");
      ("journal.checkpoints_per_kop", "count");
      ("journal.replace_us", "us");
      ("journal.load_us", "us");
      ("store.save_us", "us");
      ("store.load_us", "us");
      ("store.syscalls_per_save", "count");
      ("store.syscalls_per_load", "count");
      ("disk.io_per_op", "count");
      ("disk.io_per_restart", "count");
      ("fs.bytes_per_user_byte", "ratio");
      ("recover.us", "us");
      ("recover.records", "count");
      ("recover.store_loads_per_record", "count");
      ("trace.ops_per_s_ratio", "ratio");
      ("gc.top_heap_mb", "MB");
      ("verify_s", "s");
      ("vc_max_s", "s");
    ]
  @ List.map (fun (n, _, _) -> ("verify.suite_s." ^ n, "s")) Suites.suites
  @ List.map (fun id -> ("verify.vc_s." ^ slug id, "s")) Suites.slow_vcs

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  values : (string, float) Hashtbl.t;
  mutable notes : (string * string) list;
}

let set o name v = Hashtbl.replace o.values name v

(* An end-to-end figure, with how it was sampled for the summary. *)
let note o name v how =
  set o name v;
  o.notes <- (name, how) :: o.notes

let fail o what =
  pr "CHECK FAILED: %s" what;
  o.correct <- false

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result o catalogue =
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0. (Hashtbl.find_opt o.values name) in
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v)
          unit)
      catalogue
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.correct o.attempted o.failed (String.concat ", " metrics)

(* ------------------------------------------------------------------ *)
(* Kernel-path workloads                                               *)

let workload_of = function
  | "put" -> Some W.Put
  | "get" -> Some W.Get
  | "restart" -> Some W.Restart
  | _ -> None

(* Run the oracles on a world and fold its counts into the outcome. *)
let check o name wl ~seed (r : W.result) =
  o.attempted <- o.attempted + r.W.attempted;
  o.failed <- o.failed + r.W.failed;
  List.iter (fun e -> pr "  %s world: %s" name e) r.W.errors;
  List.iter
    (fun (what, ok) ->
      if not ok then begin
        o.failed <- o.failed + 1;
        fail o (Printf.sprintf "%s world: %s" name what)
      end)
    (W.oracles wl ~seed r);
  if r.W.attempted = 0 then fail o (name ^ " world made no calls");
  if wl = W.Restart then
    pr "  %s world: replays %s" name
      (String.concat " "
         (List.sort_uniq compare
            (List.map
               (fun nd ->
                 let rc = nd.W.recovery in
                 Printf.sprintf "records=%d/redone=%d/skipped=%d/dups=%d/torn=%b"
                   rc.W.NC.r_records rc.W.NC.r_redone rc.W.NC.r_skipped
                   rc.W.NC.r_dup_entries rc.W.NC.r_torn_tail)
               r.W.nodes)))

let report_latency ~label ~pct (lat : float list) =
  let n = List.length lat in
  pr "  %s: n=%d p50=%.1f us p%g=%.1f us%s" label n (median lat) pct
    (quantile (pct /. 100.) lat)
    (if tail_ok pct n then "" else " (fewer than 10 samples beyond the tail)")

(* Host-speed scaling.  The measured phase is cut into equal windows of
   CPU time, each scaled by the host speed the [Host] probes saw in it:
   ops_per_s is the operations over the scaled length of the phase, and a
   call's latency is scaled by its window's factor.  A restart lasts a
   tenth of a second or more, long enough to be scaled by the probes
   inside it.  The unscaled CPU-time figures are printed for people. *)
type window = { raw_rate : float; scale : float; samples : float list }

let windows ~count (r : W.result) =
  let len = r.W.elapsed_s /. float_of_int count in
  let bins = Array.make count [] in
  List.iter2
    (fun t l ->
      let i = max 0 (min (count - 1) (int_of_float ((t -. r.W.t_start) /. len))) in
      bins.(i) <- (t, l) :: bins.(i))
    (W.Fbuf.to_list r.W.ends) (W.Fbuf.to_list r.W.lat_us);
  List.filter_map
    (fun bin ->
      match bin with
      | [] | [ _ ] -> None
      | _ ->
          let ts = List.map fst bin in
          let first = List.fold_left min infinity ts in
          let last = List.fold_left max neg_infinity ts in
          let scale = Host.scale first last in
          let raw_rate = float_of_int (List.length bin - 1) /. (last -. first) in
          Some { raw_rate; scale; samples = List.map snd bin })
    (Array.to_list bins)

let scaled_setup (r : W.result) =
  r.W.setup_s *. Host.scale r.W.setup_at (r.W.setup_at +. r.W.setup_s)

let lowest f ws = List.fold_left (fun a w -> min a (f w)) infinity ws
let highest f ws = List.fold_left (fun a w -> max a (f w)) neg_infinity ws

(* The measured world; returns its own set-up time, scaled.  Nothing of
   the world outlives this function, so the set-ups that follow it do not
   share the heap with it. *)
let measure o wl ~name ~seed ~seconds ~tiny =
  let stop = if tiny then W.Ops 10 else W.For seconds in
  let r = W.run ~workload:wl ~seed ~stop ~traced:false ~ktrace:false in
  check o "measured" wl ~seed r;
  let pct = tail_pct name in
  pr "  measured phase: %.3f CPU s in %.3f wall s, %d host probes" r.W.elapsed_s r.W.wall_s
    (List.length !Host.probes);
  (* Put and get windows last 0.25 s and hold over a thousand calls;
     restart windows last 1 s. *)
  let window_s = if wl = W.Restart then 1. else 0.25 in
  let count = if tiny then 2 else max 1 (int_of_float (seconds /. window_s)) in
  let ws = windows ~count r in
  let raw, lat =
    if wl = W.Restart then
      let raw = W.Fbuf.to_list r.W.lat_us in
      (raw, List.map2 (fun t l -> l *. Host.scale (t -. (l *. 1e-6)) t) (W.Fbuf.to_list r.W.ends) raw)
    else
      ( List.concat_map (fun w -> w.samples) ws,
        List.concat_map (fun w -> List.map (fun l -> l *. w.scale) w.samples) ws )
  in
  let label = if wl = W.Restart then "kill -> first Pong" else "call latency" in
  report_latency ~label:(label ^ ", CPU time") ~pct raw;
  report_latency ~label:(label ^ ", scaled") ~pct lat;
  pr "  %d windows, rates (CPU time) from %.1f to %.1f, median %.1f; host scale from %.3f to %.3f"
    (List.length ws)
    (lowest (fun w -> w.raw_rate) ws)
    (highest (fun w -> w.raw_rate) ws)
    (median (List.map (fun w -> w.raw_rate) ws))
    (lowest (fun w -> w.scale) ws)
    (highest (fun w -> w.scale) ws);
  let n = List.length lat in
  let of_windows = Printf.sprintf "%d windows, scaled" (List.length ws) in
  let of_samples = Printf.sprintf "%d samples, scaled" n in
  if ws = [] then fail o "no window with two completions"
  else begin
    let len = r.W.elapsed_s /. float_of_int count in
    let scaled_s = List.fold_left (fun a w -> a +. (len *. w.scale)) 0. ws in
    note o "ops_per_s" (float_of_int n /. scaled_s) of_windows;
    note o "latency_us_p50" (median lat) of_samples;
    note o "latency_us_tail" (quantile (pct /. 100.) lat) (Printf.sprintf "p%g, %s" pct of_samples)
  end;
  note o "heap_mb_live" r.W.live_mb "when the measured phase ends";
  scaled_setup r

let e2e_kernel o wl ~name ~seed ~seconds ~tiny =
  (* Set-up runs several times, half before the measured world and half
     after it; setup_s is the median, the measured world's own set-up
     included. *)
  let setup_only () =
    Gc.compact ();
    scaled_setup (W.run ~workload:wl ~seed ~stop:W.Setup_only ~traced:false ~ktrace:false)
  in
  let extra = if tiny then 0 else if wl = W.Restart then 6 else 8 in
  let before = List.init (extra / 2) (fun _ -> setup_only ()) in
  Gc.compact ();
  let own = measure o wl ~name ~seed ~seconds ~tiny in
  let after = List.init (extra - (extra / 2)) (fun _ -> setup_only ()) in
  let setups = before @ [ own ] @ after in
  pr "  set-up: %s s" (String.concat " " (List.map (Printf.sprintf "%.4f") setups));
  note o "setup_s" (median setups) (Printf.sprintf "median of %d" (List.length setups))

let per_op n d = if d = 0 then 0. else float_of_int n /. float_of_int d

let print_histograms label trace =
  List.iter
    (fun (pid, kinds) ->
      pr "  %s pid %d: %s" label pid
        (String.concat " " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) kinds)))
    (W.histogram trace)

(* Exact counts per seed: a fixed number of calls (or restarts) under the
   kernel syscall trace, on the real netd. *)
let layer_counts o wl ~seed ~tiny =
  let ops =
    match (wl, tiny) with
    | W.Restart, true -> 1
    | W.Restart, false -> 3
    | _, true -> 10
    | _, false -> 500
  in
  let r = W.run ~workload:wl ~seed ~stop:(W.Ops ops) ~traced:false ~ktrace:true in
  check o "count" wl ~seed r;
  let n = r.W.acked in
  pr "  counted world: %d %s, %d virtual ticks" n
    (if wl = W.Restart then "restarts" else "calls") r.W.ticks;
  print_histograms "server" r.W.trace_server;
  print_histograms "client" r.W.trace_client;
  let both = r.W.trace_server @ r.W.trace_client in
  let count_kind k = List.length (List.filter (fun (_, q, _) -> W.kind q = k) both) in
  List.iter (fun k -> set o ("kernel.syscalls_per_op." ^ k) (per_op (count_kind k) n)) kinds;
  List.iter
    (fun k -> if not (List.mem k kinds) then pr "  syscall kind outside the catalogue: %s" k)
    (List.sort_uniq compare (List.map (fun (_, q, _) -> W.kind q) both));
  set o "kernel.syscalls_per_op.server" (per_op (List.length r.W.trace_server) n);
  set o "kernel.syscalls_per_op.client" (per_op (List.length r.W.trace_client) n);
  let polls = List.filter_map W.poll_outcome both in
  set o "kernel.again_ratio"
    (per_op (List.length (List.filter Fun.id polls)) (List.length polls));
  set o "acks_per_kilotick" (per_op (1000 * n) r.W.ticks);
  set o "net.bytes_copied_per_op" (per_op r.W.copied_bytes n);
  set o "net.copies_per_op" (per_op r.W.copies n);
  let nodes = r.W.nodes in
  set o "req_queue.high_water"
    (float_of_int (List.fold_left (fun a nd -> max a nd.W.high_water) 0 nodes));
  let served =
    List.fold_left
      (fun acc nd -> Array.mapi (fun i x -> x + nd.W.served.(i)) acc)
      (Array.make W.config.Bi_netd.Netd.workers 0) nodes
  in
  set o "netd.served_spread"
    (float_of_int (Array.fold_left max 0 served - Array.fold_left min max_int served));
  set o "node_core.applied" (float_of_int (W.sum (fun nd -> W.NC.applied nd.W.core) nodes));
  set o "node_core.dup_hits" (float_of_int (W.sum (fun nd -> W.NC.dup_hits nd.W.core) nodes));
  set o "store.syscalls_per_save" (float_of_int r.W.probe_save);
  set o "store.syscalls_per_load" (float_of_int r.W.probe_load);
  let user_bytes = W.sum (fun (_, v) -> String.length v) r.W.contents in
  set o "fs.bytes_per_user_byte" (per_op r.W.fs_used_bytes user_bytes);
  match wl with
  | W.Put | W.Get ->
      set o "rc.attempts_per_op" (per_op r.W.rc_attempts r.W.rc_ops);
      set o "disk.io_per_op" (per_op r.W.disk_io n);
      set o "journal.checkpoints_per_kop"
        (per_op (1000 * W.sum (fun nd -> W.NC.checkpoints nd.W.core) nodes) n)
  | W.Restart ->
      set o "disk.io_per_restart" (per_op r.W.disk_io n);
      (match List.rev nodes with
      | last :: _ -> set o "recover.records" (float_of_int last.W.recovery.W.NC.r_records)
      | [] -> ())

(* The world untraced, then again with spans around every layer (on the
   traced netd copy): the ratio of their throughputs prices the spans. *)
let layer_spans o wl ~name ~seed ~seconds ~tiny ~out =
  let stop = if tiny then W.Ops 10 else W.For (seconds /. 2.) in
  Gc.compact ();
  let plain = W.run ~workload:wl ~seed ~stop ~traced:false ~ktrace:false in
  check o "untraced" wl ~seed plain;
  Spans.reset ();
  Spans.journal_bytes := 0;
  Gc.compact ();
  let r = W.run ~workload:wl ~seed ~stop ~traced:true ~ktrace:false in
  check o "traced" wl ~seed r;
  let spans = Spans.spans () in
  Spans.reset ();
  let sm = Spans.summarize spans in
  List.iter (fun v -> fail o ("span conservation: " ^ v)) sm.Spans.violations;
  let path = Filename.concat out (Printf.sprintf "spans-%s.jsonl" name) in
  Spans.write path spans;
  pr "  span log: %d spans -> %s" (List.length spans) path;
  let rate (r : W.result) = float_of_int r.W.acked /. r.W.elapsed_s in
  pr "  tracing overhead: %.1f ops/s traced vs %.1f ops/s untraced" (rate r) (rate plain);
  set o "trace.ops_per_s_ratio" (rate r /. rate plain);
  set o "gc.top_heap_mb" (top_heap_mb ());
  let mean_us = Spans.mean_us sm.Spans.by_name in
  let self_us = Spans.mean_us sm.Spans.self in
  List.iter
    (fun (metric, span) -> set o metric (mean_us span))
    [
      ("journal.append_us", "journal.append");
      ("journal.replace_us", "journal.replace");
      ("journal.load_us", "journal.load");
      ("store.save_us", "store.save");
      ("store.load_us", "store.load");
    ];
  match wl with
  | W.Put | W.Get ->
      let rpc = mean_us "rpc" and handle = mean_us "handle" in
      set o "rc.self_us" (self_us "op");
      set o "nd_client.rpc_us" rpc;
      set o "node_core.handle_us" handle;
      set o "node_core.self_us" (self_us "handle");
      set o "kernel.transport_us" (rpc -. handle);
      if wl = W.Put then
        set o "journal.bytes_per_put" (per_op !Spans.journal_bytes r.W.acked)
  | W.Restart ->
      let records = W.sum (fun nd -> nd.W.recovery.W.NC.r_records) (List.tl r.W.nodes) in
      (* The first spawn's recover ran in set-up, outside any restart. *)
      let recovers =
        List.filter (fun s -> s.Spans.name = "recover" && s.Spans.parent > 0) spans
      in
      set o "recover.us" (1e6 *. Spans.mean (List.map Spans.dur recovers));
      set o "recover.store_loads_per_record"
        (per_op (Spans.count_under sm ~parent:"recover" ~child:"store.load" spans) records)

(* ------------------------------------------------------------------ *)
(* Verify workload                                                     *)

(* Discharge every suite on one domain, at least twice and until
   [seconds] have passed; each VC's time is its best discharge. *)
let verify o ~seconds ~trace ~tiny =
  let only = if tiny then Some [ "abi"; "net"; "pwc" ] else None in
  (* Building the VC lists is set-up.  One build takes about 0.2 ms, so a
     sample is the mean of a batch of 100 builds.  All are taken before the
     discharges: builds after them ran several times slower. *)
  let batch = if tiny then 1 else 100 in
  let build () =
    let t0 = Spans.now () in
    for _ = 2 to batch do
      ignore (Suites.build ?only ())
    done;
    let b = Suites.build ?only () in
    let t1 = Spans.now () in
    ((t1 -. t0) *. Host.scale t0 t1 /. float_of_int batch, b)
  in
  let builds = List.init (if tiny then 1 else 10) (fun _ -> build ()) in
  let built = snd (List.hd builds) in
  let t0 = Spans.now () in
  let rec rounds acc =
    let acc = Suites.discharge built :: acc in
    if tiny || (List.length acc >= 2 && Spans.now () -. t0 >= seconds) then List.rev acc
    else rounds acc
  in
  let all = rounds [] in
  List.iter
    (List.iter (fun (name, _, n, vcs) ->
         let unproved = List.length (List.filter (fun (_, ok, _) -> not ok) vcs) in
         o.attempted <- o.attempted + n;
         o.failed <- o.failed + unproved;
         if unproved > 0 then
           fail o (Printf.sprintf "suite %s: %d VCs not proved" name unproved)))
    all;
  let first = List.hd all in
  List.iter
    (fun (name, pin, n, _) ->
      if n <> pin then begin
        o.failed <- o.failed + 1;
        fail o (Printf.sprintf "suite %s has %d VCs, pinned %d" name n pin)
      end)
    first;
  (* Every discharge lists the same VCs in the same order. *)
  let times_of reps = List.concat_map (fun (_, _, _, vcs) -> List.map (fun (_, _, t) -> t) vcs) reps in
  let times =
    List.fold_left
      (fun acc reps -> List.map2 min acc (times_of reps))
      (times_of first) (List.tl all)
  in
  let ids =
    List.concat_map (fun (name, _, _, vcs) -> List.map (fun (id, _, _) -> (name, id)) vcs) first
  in
  let best = List.combine ids times in
  let suite_s name =
    List.fold_left (fun a ((s, _), t) -> if s = name then a +. t else a) 0. best
  in
  List.iter
    (fun (name, _, n, _) -> pr "  %-4s %3d VCs  %.3f s" name n (suite_s name))
    first;
  let total = List.fold_left ( +. ) 0. times in
  let vc_max = List.fold_left max 0. times in
  pr "  verify: best of %d discharges, %.3f s total, slowest VC %.3f s" (List.length all)
    total vc_max;
  if trace then begin
    set o "verify_s" total;
    set o "gc.top_heap_mb" (top_heap_mb ());
    set o "vc_max_s" vc_max;
    List.iter (fun (name, _, _, _) -> set o ("verify.suite_s." ^ name) (suite_s name)) first;
    List.iter
      (fun ((_, id), t) ->
        if List.mem id Suites.slow_vcs then set o ("verify.vc_s." ^ slug id) t)
      best
  end
  else begin
    let pct = tail_pct "verify" in
    let setups = List.map fst builds in
    pr "  set-up: %s s per build"
      (String.concat " " (List.map (Printf.sprintf "%.6f") setups));
    report_latency ~label:"per-VC time" ~pct (List.map (fun t -> 1e6 *. t) times);
    let n = List.length times in
    let per_vc = Printf.sprintf "%d VCs, each its best of %d" n (List.length all) in
    note o "setup_s" (median setups)
      (Printf.sprintf "median of %d batches of %d builds" (List.length setups) batch);
    note o "ops_per_s" (float_of_int n /. total) per_vc;
    note o "latency_us_p50" (1e6 *. median times) per_vc;
    note o "latency_us_tail"
      (1e6 *. quantile (pct /. 100.) times)
      (Printf.sprintf "p%g, %s" pct per_vc);
    note o "heap_mb_live" (W.live_mb ()) "after the discharges"
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref "perfbench/out" and tiny = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "put|get|restart|verify");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--out", Arg.Set_string out, "DIR where span logs go");
      ("--tiny", Arg.Set tiny, " a few calls per world (the benchmark's own tests)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let name = !workload and seed = !seed and seconds = !seconds and tiny = !tiny in
  let traced = !trace = 1 in
  let o =
    { attempted = 0; failed = 0; correct = true; values = Hashtbl.create 64; notes = [] }
  in
  pr "workload %s, seed %d, %.1f s, trace %d" name seed seconds !trace;
  Host.start ();
  (match (name, workload_of name) with
  | "verify", _ -> verify o ~seconds ~trace:traced ~tiny
  | _, Some wl ->
      if traced then begin
        (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
        layer_counts o wl ~seed ~tiny;
        layer_spans o wl ~name ~seed ~seconds ~tiny ~out:!out
      end
      else e2e_kernel o wl ~name ~seed ~seconds ~tiny
  | _, None ->
      prerr_endline ("unknown workload: " ^ name);
      exit 2);
  Host.stop ();
  if o.failed > 0 then o.correct <- false;
  if not traced then
    List.iter
      (fun (metric, unit) ->
        pr "  %-16s %14.6g %-3s (%s)" metric
          (Option.value ~default:0. (Hashtbl.find_opt o.values metric))
          unit
          (Option.value ~default:"" (List.assoc_opt metric o.notes)))
      end_to_end;
  pr "  failed_frac: %g (%d of %d)"
    (if o.attempted = 0 then 1. else float_of_int o.failed /. float_of_int o.attempted)
    o.failed o.attempted;
  print_result o (if traced then per_layer else end_to_end)
