(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 4 for the experiment index), then runs
   Bechamel microbenchmarks — one per table/figure family plus the
   checked-vs-erased ablation.

   Usage:
     main.exe                     everything (same as [all])
     main.exe TARGET...           the named subjects, in order; [subjects]
                                  at the end of this file lists them
     main.exe micro               microbenchmarks only
     main.exe all --json FILE     also dump every structured result
                                  (tables, ablations, micro ns/op) to
                                  FILE as JSON
   An unknown target prints the list and exits 2. *)

open Bechamel

let ppf = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* JSON output (--json FILE).  Hand-emitted: the runner deliberately has
   no JSON library dependency.                                          *)

module Json = struct
  type t =
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec emit buf ~indent v =
    let pad n = String.make n ' ' in
    match v with
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        (* nan/inf are not JSON numbers. *)
        if Float.is_finite f then
          Buffer.add_string buf (Printf.sprintf "%.6g" f)
        else Buffer.add_string buf "null"
    | Str s -> Buffer.add_string buf ("\"" ^ escape s ^ "\"")
    | List [] -> Buffer.add_string buf "[]"
    | List xs ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (pad (indent + 2));
            emit buf ~indent:(indent + 2) x)
          xs;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (pad indent);
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (pad (indent + 2));
            Buffer.add_string buf ("\"" ^ escape k ^ "\": ");
            emit buf ~indent:(indent + 2) x)
          kvs;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (pad indent);
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 4096 in
    emit buf ~indent:0 v;
    Buffer.add_char buf '\n';
    Buffer.contents buf
end

(* Top-level sections accumulate here as targets run; [--json FILE]
   flushes whatever ran.  Re-running a target overwrites its section. *)
let json_doc : (string * Json.t) list ref = ref []

let record key v =
  json_doc := List.filter (fun (k, _) -> k <> key) !json_doc @ [ (key, v) ]

(* ------------------------------------------------------------------ *)
(* Microbenchmark subjects                                             *)

module Pt = Bi_pt.Page_table
module Pv = Bi_pt.Pt_verified
module Addr = Bi_hw.Addr
module Pte = Bi_hw.Pte

let fresh_env () =
  let mem = Bi_hw.Phys_mem.create ~size:(4 * 1024 * 1024) in
  let frames =
    Bi_hw.Frame_alloc.create ~mem ~base:0x40000L
      ~frames:((4 * 1024 * 1024 / 4096) - 64)
  in
  (mem, frames)

(* One representative VC (table-driven suites are benched by sampling). *)
let vc_subject =
  lazy
    (let vcs = Bi_pt.Pt_refinement.all () in
     List.nth vcs 50)

let bench_vc () =
  let vc = Lazy.force vc_subject in
  ignore (Bi_core.Vc.catch (fun () -> vc.Bi_core.Vc.check ()))

(* Figure 1b family: one map operation, unverified vs verified-erased vs
   verified-checked (the ablation: what runtime checking would cost). *)
let map_cycle_unverified =
  let mem, frames = fresh_env () in
  let pt = Pt.create ~mem ~frames in
  let i = ref 0 in
  fun () ->
    let va = Addr.of_indices ~l4:0 ~l3:0 ~l2:0 ~l1:(!i land 0x1FF) ~offset:0L in
    incr i;
    (match Pt.map pt ~va ~frame:0x40000000L ~size:Addr.page_size ~perm:Pte.user_rw with
    | Ok () | Error _ -> ());
    (match Pt.unmap pt ~va with Ok _ | Error _ -> ())

let map_cycle_verified mode =
  let mem, frames = fresh_env () in
  let pt = Pv.create ~mem ~frames in
  let i = ref 0 in
  fun () ->
    Bi_core.Contract.with_mode mode (fun () ->
        let va =
          Addr.of_indices ~l4:0 ~l3:0 ~l2:0 ~l1:(!i land 0x1FF) ~offset:0L
        in
        incr i;
        (match
           Pv.map pt ~va ~frame:0x40000000L ~size:Addr.page_size
             ~perm:Pte.user_rw
         with
        | Ok () | Error _ -> ());
        (match Pv.unmap pt ~va with Ok _ | Error _ -> ()))

(* Table 2 family: one filesystem write+read. *)
let fs_subject =
  lazy
    (let disk = Bi_hw.Device.Disk.create ~sectors:4096 () in
     let fs = Bi_fs.Fs.mkfs (Bi_fs.Block_dev.of_disk disk) in
     (match Bi_fs.Fs.create fs "/bench" with Ok () | Error _ -> ());
     match Bi_fs.Fs.resolve fs "/bench" with
     | Ok ino -> (fs, ino)
     | Error _ -> failwith "bench fs setup")

let bench_fs () =
  let fs, ino = Lazy.force fs_subject in
  (match Bi_fs.Fs.write_ino fs ~ino ~off:0 (Bytes.make 512 'b') with
  | Ok () | Error _ -> ());
  match Bi_fs.Fs.read_ino fs ~ino ~off:0 ~len:512 with
  | Ok _ | Error _ -> ()

(* Table 1 family: memory-safety probe (bounds checks on the hardware
   model). *)
let mem_subject = lazy (Bi_hw.Phys_mem.create ~size:65536)

let bench_phys_mem () =
  let mem = Lazy.force mem_subject in
  for i = 0 to 63 do
    Bi_hw.Phys_mem.write_u64 mem (Int64.of_int (i * 8)) (Int64.of_int i)
  done;
  for i = 0 to 63 do
    ignore (Bi_hw.Phys_mem.read_u64 mem (Int64.of_int (i * 8)))
  done

(* Ratio family: syscall-ABI marshalling round-trip. *)
let abi_reqs =
  lazy
    (let g = Bi_core.Gen.of_string "bench/abi" in
     Array.init 64 (fun _ -> Bi_kernel.Sysabi.sample_request g))

let bench_marshal () =
  let reqs = Lazy.force abi_reqs in
  Array.iter
    (fun req ->
      ignore
        (Bi_kernel.Sysabi.decode_request (Bi_kernel.Sysabi.encode_request req)))
    reqs

(* NR ablation: single-threaded execute through the real NR machinery,
   over the counter the NR suites replicate. *)
module Counter = Bi_nr.Counter
module Nrc = Bi_nr.Nr.Make (Counter)

let nr_subject = Nrc.create ~replicas:2 ~threads_per_replica:2 ()

let bench_nr_update () =
  ignore (Nrc.execute nr_subject ~thread:0 Counter.Incr : int)

let bench_nr_read () =
  ignore (Nrc.execute nr_subject ~thread:1 Counter.Read : int)

(* Batched-range family: 512 pages mapped and unmapped through one range
   call per direction vs. 512 single-page root-to-leaf walks. *)
let range_frame = 0x40000000L

let map_cycle_range_512 =
  let mem, frames = fresh_env () in
  let pt = Pt.create ~mem ~frames in
  let va = Addr.of_indices ~l4:0 ~l3:0 ~l2:1 ~l1:0 ~offset:0L in
  fun () ->
    (match
       Pt.map_range pt ~va ~frame:range_frame ~pages:512 ~perm:Pte.user_rw
     with
    | Ok () | Error _ -> ());
    match Pt.unmap_range pt ~va ~pages:512 with Ok _ | Error _ -> ()

let map_cycle_loop_512 =
  let mem, frames = fresh_env () in
  let pt = Pt.create ~mem ~frames in
  fun () ->
    for i = 0 to 511 do
      let va = Addr.of_indices ~l4:0 ~l3:0 ~l2:1 ~l1:i ~offset:0L in
      match
        Pt.map pt ~va
          ~frame:(Int64.add range_frame (Int64.of_int (i * 4096)))
          ~size:Addr.page_size ~perm:Pte.user_rw
      with
      | Ok () | Error _ -> ()
    done;
    for i = 0 to 511 do
      let va = Addr.of_indices ~l4:0 ~l3:0 ~l2:1 ~l1:i ~offset:0L in
      match Pt.unmap pt ~va with Ok _ | Error _ -> ()
    done

(* PWC family: translate a 64-page hot set with a cold walk, with the
   paging-structure cache resuming at the cached PDE, and with a TLB
   large enough to hold the whole set.  All 64 pages share one 2 MiB
   region, so the PWC serves every translation from a single level-1
   entry after the first miss. *)
let translate_env =
  lazy
    (let mem, frames = fresh_env () in
     let pt = Pt.create ~mem ~frames in
     let va = Addr.of_indices ~l4:0 ~l3:0 ~l2:0 ~l1:0 ~offset:0L in
     (match
        Pt.map_range pt ~va ~frame:range_frame ~pages:512 ~perm:Pte.user_rw
      with
     | Ok () | Error _ -> ());
     (mem, Pt.root pt))

let translate_hot ?tlb ?pwc () =
  let mem, cr3 = Lazy.force translate_env in
  for i = 0 to 63 do
    let va = Addr.of_indices ~l4:0 ~l3:0 ~l2:0 ~l1:(i * 8) ~offset:0x18L in
    match Bi_hw.Mmu.translate ?tlb ?pwc mem ~cr3 Bi_hw.Mmu.Read va with
    | Ok _ | Error _ -> ()
  done

let bench_translate_walk () = translate_hot ()

let bench_translate_pwc =
  let pwc = Bi_hw.Pwc.create ~capacity:16 in
  fun () -> translate_hot ~pwc ()

let bench_translate_tlb =
  let tlb = Bi_hw.Tlb.create ~capacity:128 in
  fun () -> translate_hot ~tlb ()

(* Storage-node family: the fs steps under one store save/load, on the
   node's 64-entry /blocks (one file per key, its crc in the header). *)
let store_keys = Array.init 64 (fun i -> Printf.sprintf "k%02d" i)

let store_env =
  lazy
    (let disk = Bi_hw.Device.Disk.create ~sectors:4096 () in
     let fs = Bi_fs.Fs.mkfs (Bi_fs.Block_dev.of_disk disk) in
     let store = Bi_app.Node_core.fs_store fs in
     Array.iter
       (fun k ->
         let value = String.make 64 'v' in
         match
           store.save k { value; crc = Bi_app.Protocol.crc32 value }
         with
         | Ok () -> ()
         | Error _ -> failwith "bench store setup")
       store_keys;
     (fs, store))

(* Cycle through the keys so every position in /blocks is priced. *)
let next_key =
  let i = ref 0 in
  fun () ->
    i := (!i + 1) mod Array.length store_keys;
    store_keys.(!i)

let bench_fs_resolve (fs, _) =
  ignore (Bi_fs.Fs.resolve fs (Bi_app.Node_core.key_path (next_key ())))

let bench_fs_unlink_create (fs, _) =
  let path = Bi_app.Node_core.key_path (next_key ()) in
  (match Bi_fs.Fs.unlink fs path with Ok () | Error _ -> ());
  match Bi_fs.Fs.create fs path with Ok () | Error _ -> ()

let bench_store_save (_, (store : Bi_app.Node_core.store)) =
  let value = String.make 64 's' in
  ignore (store.save (next_key ()) { value; crc = Bi_app.Protocol.crc32 value })

let bench_store_load (_, (store : Bi_app.Node_core.store)) =
  ignore (store.load (next_key ()))

(* The store is built once, outside the measured runs. *)
let store_test name f =
  Test.make_with_resource ~name Test.uniq
    ~allocate:(fun () -> Lazy.force store_env)
    ~free:ignore (Staged.stage f)

let tests =
  [
    Test.make ~name:"fig1a/vc-discharge" (Staged.stage bench_vc);
    Test.make ~name:"fig1b/map-unmap-unverified" (Staged.stage map_cycle_unverified);
    Test.make ~name:"fig1b/map-unmap-verified-erased"
      (Staged.stage (map_cycle_verified Bi_core.Contract.Erased));
    Test.make ~name:"fig1c/map-unmap-verified-checked"
      (Staged.stage (map_cycle_verified Bi_core.Contract.Checked));
    Test.make ~name:"table1/phys-mem-safety" (Staged.stage bench_phys_mem);
    Test.make ~name:"table2/fs-write-read" (Staged.stage bench_fs);
    store_test "fs/resolve-128" bench_fs_resolve;
    store_test "fs/unlink-create-128" bench_fs_unlink_create;
    store_test "fs_store/save-128" bench_store_save;
    store_test "fs_store/load-128" bench_store_load;
    Test.make ~name:"ratio/abi-marshal-roundtrip" (Staged.stage bench_marshal);
    Test.make ~name:"nr/update" (Staged.stage bench_nr_update);
    Test.make ~name:"nr/read" (Staged.stage bench_nr_read);
    Test.make ~name:"ptb/map-unmap-range-512p" (Staged.stage map_cycle_range_512);
    Test.make ~name:"ptb/map-unmap-loop-512p" (Staged.stage map_cycle_loop_512);
    Test.make ~name:"pwc/translate-64hot-walk" (Staged.stage bench_translate_walk);
    Test.make ~name:"pwc/translate-64hot-pwc" (Staged.stage bench_translate_pwc);
    Test.make ~name:"pwc/translate-64hot-tlb" (Staged.stage bench_translate_tlb);
  ]

let run_micro () =
  Format.fprintf ppf "Microbenchmarks (Bechamel, monotonic clock)@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:true ()
  in
  let measure_one test =
    let raw = Benchmark.all cfg [ instance ] test in
    let results = Analyze.all ols instance raw in
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (x :: _) -> x
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
  in
  let rows = List.concat_map measure_one tests in
  List.iter
    (fun (name, ns) -> Format.fprintf ppf "  %-36s %12.1f ns/op@." name ns)
    rows;
  record "micro"
    (Json.List
       (List.map
          (fun (name, ns) ->
            Json.Obj [ ("name", Json.Str name); ("ns_per_op", Json.Float ns) ])
          rows))

(* ------------------------------------------------------------------ *)
(* Parallel VC discharge: sequential vs. one domain per core the host
   recommends, on the pt suite (the paper's 220 obligations).         *)

let run_discharge_bench () =
  let jobs = Domain.recommended_domain_count () in
  Format.fprintf ppf
    "VC discharge: sequential vs parallel (pt suite, %d domains recommended \
     by host)@."
    jobs;
  let vcs = Bi_pt.Pt_refinement.all () in
  let seq = Bi_core.Verifier.discharge ~jobs:1 vcs in
  let par = Bi_core.Verifier.discharge ~jobs vcs in
  let speedup =
    seq.Bi_core.Verifier.wall_time_s
    /. Float.max 1e-9 par.Bi_core.Verifier.wall_time_s
  in
  Format.fprintf ppf "    sequential: wall %7.3f s (summed per VC %7.3f s)@."
    seq.Bi_core.Verifier.wall_time_s seq.Bi_core.Verifier.total_time_s;
  Format.fprintf ppf
    "    %d domains:  wall %7.3f s (summed per VC %7.3f s) — %.2fx speedup over \
     sequential wall@."
    jobs par.Bi_core.Verifier.wall_time_s par.Bi_core.Verifier.total_time_s
    speedup;
  let identical =
    List.for_all2
      (fun (a : Bi_core.Verifier.result) (b : Bi_core.Verifier.result) ->
        a.Bi_core.Verifier.vc.Bi_core.Vc.id = b.Bi_core.Verifier.vc.Bi_core.Vc.id
        && a.Bi_core.Verifier.outcome = b.Bi_core.Verifier.outcome)
      seq.Bi_core.Verifier.results par.Bi_core.Verifier.results
  in
  Format.fprintf ppf "    outcomes identical and in order: %b@." identical;
  record "discharge"
    (Json.Obj
       [
         ("vcs", Json.Int (List.length vcs));
         ("sequential_wall_s", Json.Float seq.Bi_core.Verifier.wall_time_s);
         ("parallel_wall_s", Json.Float par.Bi_core.Verifier.wall_time_s);
         ("parallel_jobs", Json.Int jobs);
         ("speedup_x", Json.Float speedup);
         ("outcomes_identical", Json.Bool identical);
       ])

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out, quantified.      *)

let ablation_replicas () =
  Format.fprintf ppf
    "Ablation 1: NR replica count (16 cores, write-only workload)@.";
  Format.fprintf ppf
    "  NR replicates per NUMA node to scale *reads*; every replica still@.";
  Format.fprintf ppf
    "  replays every write, so write latency should be flat in replicas:@.";
  Json.List
    (List.map
       (fun replicas ->
         let r =
           Bi_nr.Nr_sim.run
             {
               Bi_nr.Nr_sim.default_config with
               cores = 16;
               numa_nodes = replicas;
               ops_per_core = 300;
               apply_cycles = 2000;
               seed = "ablation-replicas";
             }
         in
         Format.fprintf ppf "    replicas=%d  mean=%6.2f us  p99=%6.2f us@."
           replicas r.Bi_nr.Nr_sim.mean_latency_us r.Bi_nr.Nr_sim.p99_us;
         Json.Obj
           [
             ("replicas", Json.Int replicas);
             ("mean_us", Json.Float r.Bi_nr.Nr_sim.mean_latency_us);
             ("p99_us", Json.Float r.Bi_nr.Nr_sim.p99_us);
           ])
       [ 1; 2; 4; 8 ])

let ablation_tlb () =
  Format.fprintf ppf "Ablation 2: TLB (repeated translations of 8 hot pages)@.";
  let mem, frames = fresh_env () in
  let pt = Pt.create ~mem ~frames in
  for i = 0 to 7 do
    match
      Pt.map pt
        ~va:(Addr.of_indices ~l4:0 ~l3:0 ~l2:0 ~l1:i ~offset:0L)
        ~frame:(Int64.mul (Int64.of_int (i + 1)) Addr.huge_page_size)
        ~size:Addr.page_size ~perm:Pte.user_rw
    with
    | Ok () | Error _ -> ()
  done;
  let cost = Bi_hw.Cost_model.default in
  let run ~with_tlb =
    let tlb = if with_tlb then Some (Bi_hw.Tlb.create ~capacity:64) else None in
    let walked = ref 0 in
    for round = 0 to 99 do
      ignore round;
      for i = 0 to 7 do
        let va = Addr.of_indices ~l4:0 ~l3:0 ~l2:0 ~l1:i ~offset:0x10L in
        match
          Bi_hw.Mmu.translate ?tlb (Pt.mem pt) ~cr3:(Pt.root pt) Bi_hw.Mmu.Read
            va
        with
        | Ok tr -> walked := !walked + tr.Bi_hw.Mmu.levels_walked
        | Error _ -> ()
      done
    done;
    let cycles = !walked * cost.Bi_hw.Cost_model.local_dram in
    (!walked, Bi_hw.Cost_model.cycles_to_us cost cycles)
  in
  let w_no, us_no = run ~with_tlb:false in
  let w_yes, us_yes = run ~with_tlb:true in
  Format.fprintf ppf
    "    without TLB: %5d page-walk loads (%7.2f us of DRAM time)@." w_no us_no;
  Format.fprintf ppf
    "    with TLB:    %5d page-walk loads (%7.2f us) — %.0fx fewer@." w_yes
    us_yes
    (float_of_int w_no /. float_of_int (max 1 w_yes));
  Json.Obj
    [
      ("walk_loads_without_tlb", Json.Int w_no);
      ("dram_us_without_tlb", Json.Float us_no);
      ("walk_loads_with_tlb", Json.Int w_yes);
      ("dram_us_with_tlb", Json.Float us_yes);
    ]

let ablation_wal () =
  Format.fprintf ppf
    "Ablation 3: WAL crash-safety tax (200 x 512-byte file overwrites)@.";
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let disk_io, wal_time =
    let disk = Bi_hw.Device.Disk.create ~sectors:4096 () in
    let fs = Bi_fs.Fs.mkfs (Bi_fs.Block_dev.of_disk disk) in
    (match Bi_fs.Fs.create fs "/w" with Ok () | Error _ -> ());
    let ino =
      match Bi_fs.Fs.resolve fs "/w" with Ok i -> i | Error _ -> 0
    in
    let before = Bi_hw.Device.Disk.io_count disk in
    let t =
      time (fun () ->
          for i = 0 to 199 do
            ignore
              (Bi_fs.Fs.write_ino fs ~ino ~off:0
                 (Bytes.make 512 (Char.chr (65 + (i mod 26)))))
          done)
    in
    (Bi_hw.Device.Disk.io_count disk - before, t)
  in
  let raw_io, raw_time =
    let disk = Bi_hw.Device.Disk.create ~sectors:4096 () in
    let dev = Bi_fs.Block_dev.of_disk disk in
    let before = Bi_hw.Device.Disk.io_count disk in
    let t =
      time (fun () ->
          for i = 0 to 199 do
            Bi_fs.Block_dev.write dev 100
              (Bytes.make 512 (Char.chr (65 + (i mod 26))));
            Bi_fs.Block_dev.flush dev
          done)
    in
    (Bi_hw.Device.Disk.io_count disk - before, t)
  in
  Format.fprintf ppf
    "    through WAL transactions: %5d device ops, %6.2f ms  (atomic, recoverable)@."
    disk_io (wal_time *. 1000.);
  Format.fprintf ppf
    "    raw block writes:         %5d device ops, %6.2f ms  (no crash story)@."
    raw_io (raw_time *. 1000.);
  Format.fprintf ppf "    write amplification: %.1fx@."
    (float_of_int disk_io /. float_of_int (max 1 raw_io));
  Json.Obj
    [
      ("wal_device_ops", Json.Int disk_io);
      ("wal_ms", Json.Float (wal_time *. 1000.));
      ("raw_device_ops", Json.Int raw_io);
      ("raw_ms", Json.Float (raw_time *. 1000.));
      ( "write_amplification_x",
        Json.Float (float_of_int disk_io /. float_of_int (max 1 raw_io)) );
    ]

let ablation_contract_modes () =
  Format.fprintf ppf
    "Ablation 4: contract checking vs erasure (1000 map+unmap cycles)@.";
  let time mode =
    let mem, frames = fresh_env () in
    let pt = Pv.create ~mem ~frames in
    let t0 = Unix.gettimeofday () in
    Bi_core.Contract.with_mode mode (fun () ->
        for i = 0 to 999 do
          let va =
            Addr.of_indices ~l4:0 ~l3:0 ~l2:0 ~l1:(i land 0x1FF) ~offset:0L
          in
          (match
             Pv.map pt ~va ~frame:0x40000000L ~size:Addr.page_size
               ~perm:Pte.user_rw
           with
          | Ok () | Error _ -> ());
          match Pv.unmap pt ~va with Ok _ | Error _ -> ()
        done);
    Unix.gettimeofday () -. t0
  in
  let erased = time Bi_core.Contract.Erased in
  let checked = time Bi_core.Contract.Checked in
  Format.fprintf ppf "    erased (verified, as shipped): %7.2f ms@."
    (erased *. 1000.);
  Format.fprintf ppf
    "    checked (runtime contracts):   %7.2f ms — %.0fx slower: the cost@."
    (checked *. 1000.)
    (checked /. erased);
  Format.fprintf ppf
    "    verification erases but runtime checking would pay on every call.@.";
  Json.Obj
    [
      ("erased_ms", Json.Float (erased *. 1000.));
      ("checked_ms", Json.Float (checked *. 1000.));
      ("slowdown_x", Json.Float (checked /. erased));
    ]

let ablation_range_accesses () =
  Format.fprintf ppf
    "Ablation 5: batched map_range vs 512 single maps (physical-memory \
     accesses)@.";
  let count ~batched =
    let mem, frames = fresh_env () in
    let pt = Pt.create ~mem ~frames in
    (* Warm the shared upper path (root/L3/L2 tables, via a sibling L2
       slot) so the counts reflect steady state rather than first-touch
       table allocation. *)
    (match
       Pt.map pt
         ~va:(Addr.of_indices ~l4:0 ~l3:0 ~l2:1 ~l1:0 ~offset:0L)
         ~frame:range_frame ~size:Addr.page_size ~perm:Pte.user_rw
     with
    | Ok () | Error _ -> ());
    Bi_hw.Phys_mem.reset_counters mem;
    (if batched then (
       match
         Pt.map_range pt
           ~va:(Addr.of_indices ~l4:0 ~l3:0 ~l2:2 ~l1:0 ~offset:0L)
           ~frame:range_frame ~pages:512 ~perm:Pte.user_rw
       with
       | Ok () | Error _ -> ())
     else
       for i = 0 to 511 do
         match
           Pt.map pt
             ~va:(Addr.of_indices ~l4:0 ~l3:0 ~l2:2 ~l1:i ~offset:0L)
             ~frame:(Int64.add range_frame (Int64.of_int (i * 4096)))
             ~size:Addr.page_size ~perm:Pte.user_rw
         with
         | Ok () | Error _ -> ()
       done);
    Bi_hw.Phys_mem.loads mem + Bi_hw.Phys_mem.stores mem
  in
  let singles = count ~batched:false in
  let batched = count ~batched:true in
  let reduction = float_of_int singles /. float_of_int (max 1 batched) in
  Format.fprintf ppf "    512 single maps: %6d loads+stores@." singles;
  Format.fprintf ppf "    one map_range:   %6d loads+stores — %.1fx fewer@."
    batched reduction;
  Json.Obj
    [
      ("single_accesses", Json.Int singles);
      ("batched_accesses", Json.Int batched);
      ("reduction_x", Json.Float reduction);
    ]

let run_ablations () =
  let a_replicas = ablation_replicas () in
  Format.fprintf ppf "@.";
  let a_tlb = ablation_tlb () in
  Format.fprintf ppf "@.";
  let a_wal = ablation_wal () in
  Format.fprintf ppf "@.";
  let a_contract = ablation_contract_modes () in
  Format.fprintf ppf "@.";
  let a_range = ablation_range_accesses () in
  record "ablations"
    (Json.Obj
       [
         ("nr_replicas", a_replicas);
         ("tlb", a_tlb);
         ("wal", a_wal);
         ("contract_modes", a_contract);
         ("range_batching", a_range);
       ])

(* ------------------------------------------------------------------ *)
(* Structured views of the tables and figures for the JSON dump.       *)

let json_of_mark = function
  | Bi_eval.Matrix.Yes -> Json.Str "yes"
  | Bi_eval.Matrix.No -> Json.Str "no"
  | Bi_eval.Matrix.Partial -> Json.Str "partial"

let json_of_table (t : Bi_eval.Matrix.table) =
  let probes = Bi_eval.Matrix.validate t in
  Json.Obj
    [
      ("title", Json.Str t.Bi_eval.Matrix.title);
      ( "columns",
        Json.List
          (List.map (fun c -> Json.Str c) t.Bi_eval.Matrix.columns) );
      ( "rows",
        Json.List
          (List.map
             (fun (r : Bi_eval.Matrix.row) ->
               Json.Obj
                 [
                   ("label", Json.Str r.Bi_eval.Matrix.label);
                   ( "cells",
                     Json.List (List.map json_of_mark r.Bi_eval.Matrix.cells)
                   );
                   ("ours", json_of_mark r.Bi_eval.Matrix.ours);
                   ( "probe_ok",
                     match List.assoc_opt r.Bi_eval.Matrix.label probes with
                     | Some ok -> Json.Bool ok
                     | None -> Json.Bool true );
                 ])
             t.Bi_eval.Matrix.rows) );
    ]

let json_of_latency points =
  Json.List
    (List.map
       (fun (p : Bi_eval.Report.latency_point) ->
         Json.Obj
           [
             ("cores", Json.Int p.Bi_eval.Report.cores);
             ("unverified_us", Json.Float p.Bi_eval.Report.unverified_us);
             ("verified_us", Json.Float p.Bi_eval.Report.verified_us);
           ])
       points)

let record_table1 () = record "table1" (json_of_table (Bi_eval.Matrix.table1 ()))
let record_table2 () = record "table2" (json_of_table (Bi_eval.Matrix.table2 ()))

let record_fig1b () =
  record "fig1b_map_latency" (json_of_latency (Bi_eval.Report.map_latency ()))

let record_fig1c () =
  record "fig1c_unmap_latency"
    (json_of_latency (Bi_eval.Report.unmap_latency ()));
  record "apply_cycles"
    (Json.Obj
       [
         ( "unverified",
           Json.Int (Bi_eval.Report.measured_apply_cycles ~verified:false) );
         ( "verified",
           Json.Int (Bi_eval.Report.measured_apply_cycles ~verified:true) );
       ])

(* ------------------------------------------------------------------ *)
(* Model checker: sleep-set POR vs. naive merge enumeration, and the
   cost of one exploration step.  The mc suite's own VC count and wall
   time are `verify -v mc`'s.                                          *)

let run_mc_bench () =
  Format.fprintf ppf
    "Model checker: sleep-set POR vs naive interleaving enumeration@.";
  let t0 = Unix.gettimeofday () in
  let explored, naive = Bi_core.Mc_check.por_ratio () in
  let ratio_t = Unix.gettimeofday () -. t0 in
  let reduction = float_of_int naive /. float_of_int explored in
  Format.fprintf ppf
    "    3 threads x 4 steps: POR explores %d schedules vs %d naive merges \
     (%.1fx reduction, %.3f s)@."
    explored naive reduction ratio_t;
  (* Step cost: the full space with POR off, where every schedule runs
     all 12 steps. *)
  let t0 = Unix.gettimeofday () in
  let full = Bi_core.Mc_check.full_space () in
  let full_t = Unix.gettimeofday () -. t0 in
  let ns_per_step = full_t *. 1e9 /. float_of_int full.Bi_core.Explore.steps in
  Format.fprintf ppf
    "    full space (no POR): %d schedules, %d steps in %.3f s (%.0f ns/step)@."
    full.Bi_core.Explore.schedules full.Bi_core.Explore.steps full_t
    ns_per_step;
  record "mc"
    (Json.Obj
       [
         ("por_schedules", Json.Int explored);
         ("naive_merges", Json.Int naive);
         ("por_reduction_x", Json.Float reduction);
         ("full_schedules", Json.Int full.Bi_core.Explore.schedules);
         ("full_steps", Json.Int full.Bi_core.Explore.steps);
         ("ns_per_step", Json.Float ns_per_step);
       ])

(* ------------------------------------------------------------------ *)
(* Targets.  This one table drives single-target dispatch, [all] (every
   subject in this order) and the usage line of an unknown target.       *)

let subjects =
  [
    ( "table1",
      fun () ->
        Bi_eval.Report.table1 ppf;
        record_table1 () );
    ( "table2",
      fun () ->
        Bi_eval.Report.table2 ppf;
        record_table2 () );
    ("fig1a", fun () -> Bi_eval.Report.fig1a ppf);
    ( "fig1b",
      fun () ->
        Bi_eval.Report.fig1b ppf;
        record_fig1b () );
    ( "fig1c",
      fun () ->
        Bi_eval.Report.fig1c ppf;
        record_fig1c () );
    ("ratio", fun () -> Bi_eval.Report.ratio ppf);
    ("discharge", run_discharge_bench);
    ("ablations", run_ablations);
    ("mc", run_mc_bench);
    ("micro", run_micro);
  ]

let () =
  let rec split_json acc = function
    | [] -> (List.rev acc, None)
    | [ "--json" ] ->
        prerr_endline "--json requires a FILE argument";
        exit 2
    | "--json" :: file :: rest -> (List.rev acc @ rest, Some file)
    | arg :: rest -> split_json (arg :: acc) rest
  in
  let targets, json_file =
    split_json [] (List.tl (Array.to_list Sys.argv))
  in
  let targets = match targets with [] -> [ "all" ] | ts -> ts in
  let dispatch = function
    | "all" ->
        List.iteri
          (fun i (_, run) ->
            if i > 0 then Format.fprintf ppf "@.";
            run ())
          subjects
    | target -> (
        match List.assoc_opt target subjects with
        | Some run -> run ()
        | None ->
            Format.fprintf ppf "unknown target %s (expected %s|all)@." target
              (String.concat "|" (List.map fst subjects));
            exit 2)
  in
  List.iter dispatch targets;
  match json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Json.to_string (Json.Obj !json_doc));
      close_out oc;
      Format.fprintf ppf "@.wrote %s (%d sections)@." file
        (List.length !json_doc)
