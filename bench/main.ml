(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 4 for the experiment index), then runs
   Bechamel microbenchmarks — one per table/figure family plus the
   checked-vs-erased ablation.

   Usage:
     main.exe                     everything
     main.exe table1|table2|fig1a|fig1b|fig1c|ratio    one artifact
     main.exe micro               microbenchmarks only
     main.exe all --json FILE     also dump every structured result
                                  (tables, ablations, micro ns/op) to
                                  FILE as JSON *)

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

(* NR ablation: single-threaded execute through the real NR machinery. *)
module Counter = struct
  type t = int ref
  type op = Incr | Read
  type ret = int

  let create () = ref 0
  let apply t = function
    | Incr -> incr t; !t
    | Read -> !t

  include Bi_nr.Seq_ds.Batch_of_apply (struct
    type nonrec t = t
    type nonrec op = op
    type nonrec ret = ret

    let apply = apply
  end)

  let is_read_only = function Read -> true | Incr -> false
end

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
   node's 128-entry /blocks (64 keys, each with its .crc sidecar). *)
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
(* Parallel VC discharge: sequential vs. domain-pool wall time on the
   pt suite (the paper's 220 obligations).                              *)

let run_discharge_bench () =
  Format.fprintf ppf
    "VC discharge: sequential vs parallel (pt suite, %d domains \
     recommended by host)@."
    (Domain.recommended_domain_count ());
  let vcs = Bi_pt.Pt_refinement.all () in
  let seq = Bi_core.Verifier.discharge ~jobs:1 vcs in
  let par = Bi_core.Verifier.discharge ~jobs:4 vcs in
  Format.fprintf ppf "    sequential: wall %7.3f s (cpu %7.3f s)@."
    seq.Bi_core.Verifier.wall_time_s seq.Bi_core.Verifier.total_time_s;
  Format.fprintf ppf
    "    4 domains:  wall %7.3f s (cpu %7.3f s) — %.2fx speedup over \
     sequential wall@."
    par.Bi_core.Verifier.wall_time_s par.Bi_core.Verifier.total_time_s
    (seq.Bi_core.Verifier.wall_time_s
    /. Float.max 1e-9 par.Bi_core.Verifier.wall_time_s);
  if Domain.recommended_domain_count () < 4 then
    Format.fprintf ppf
      "    (host exposes fewer than 4 cores; speedup is bounded by real \
       parallelism)@.";
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
         ("parallel_jobs", Json.Int 4);
         ( "speedup_x",
           Json.Float
             (seq.Bi_core.Verifier.wall_time_s
             /. Float.max 1e-9 par.Bi_core.Verifier.wall_time_s) );
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
   cost of the whole mc suite.                                         *)

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
  let suite =
    Bi_core.Mc_check.vcs () @ Bi_ulib.Ulib_mc.vcs ()
    @ Bi_kernel.Futex_mc.vcs () @ Bi_nr.Nr_mc.vcs ()
  in
  let rep = Bi_core.Verifier.discharge ~jobs:1 suite in
  Format.fprintf ppf
    "    mc suite: %d VCs in %.3f s wall (%d proved, slowest %.3f s)@."
    (List.length suite) rep.Bi_core.Verifier.wall_time_s
    rep.Bi_core.Verifier.proved rep.Bi_core.Verifier.max_time_s;
  record "mc"
    (Json.Obj
       [
         ("por_schedules", Json.Int explored);
         ("naive_merges", Json.Int naive);
         ("por_reduction_x", Json.Float reduction);
         ("suite_vcs", Json.Int (List.length suite));
         ("suite_proved", Json.Int rep.Bi_core.Verifier.proved);
         ("suite_wall_s", Json.Float rep.Bi_core.Verifier.wall_time_s);
         ("suite_max_vc_s", Json.Float rep.Bi_core.Verifier.max_time_s);
       ])

(* ------------------------------------------------------------------ *)
(* Fault injection: how many crash points the explorer visits per
   subject, how far failing fault plans shrink, and the cost of the
   whole fi suite.                                                     *)

let run_fi_bench () =
  Format.fprintf ppf
    "Fault injection: crash-point exploration and plan shrinking@.";
  let t0 = Unix.gettimeofday () in
  let censuses = Bi_fault.Fi_check.bench_crash_stats () in
  let census_t = Unix.gettimeofday () -. t0 in
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf
        "    %-22s %d writes/%d flushes: %d prefix + %d torn + %d subset + \
         %d recovery crash points@."
        name s.Bi_fault.Crash_explore.writes s.Bi_fault.Crash_explore.flushes
        s.Bi_fault.Crash_explore.crash_points
        s.Bi_fault.Crash_explore.torn_points
        s.Bi_fault.Crash_explore.subset_points
        s.Bi_fault.Crash_explore.recovery_points)
    censuses;
  Format.fprintf ppf "    censuses explored in %.3f s@." census_t;
  let shrinks = Bi_fault.Fi_check.bench_shrink_demos () in
  List.iter
    (fun (name, before, after) ->
      Format.fprintf ppf "    shrink %-24s %d faults -> %d@." name before
        after)
    shrinks;
  let suite = Bi_fault.Fi_check.vcs () in
  let rep = Bi_core.Verifier.discharge ~jobs:1 suite in
  Format.fprintf ppf
    "    fi suite: %d VCs in %.3f s wall (%d proved, slowest %.3f s)@."
    (List.length suite) rep.Bi_core.Verifier.wall_time_s
    rep.Bi_core.Verifier.proved rep.Bi_core.Verifier.max_time_s;
  record "fi"
    (Json.Obj
       [
         ( "crash_censuses",
           Json.Obj
             (List.map
                (fun (name, s) ->
                  ( name,
                    Json.Obj
                      [
                        ("writes", Json.Int s.Bi_fault.Crash_explore.writes);
                        ("flushes", Json.Int s.Bi_fault.Crash_explore.flushes);
                        ( "crash_points",
                          Json.Int s.Bi_fault.Crash_explore.crash_points );
                        ( "torn_points",
                          Json.Int s.Bi_fault.Crash_explore.torn_points );
                        ( "subset_points",
                          Json.Int s.Bi_fault.Crash_explore.subset_points );
                        ( "recovery_points",
                          Json.Int s.Bi_fault.Crash_explore.recovery_points );
                      ] ))
                censuses) );
         ( "plan_shrinks",
           Json.Obj
             (List.map
                (fun (name, before, after) ->
                  ( name,
                    Json.Obj
                      [
                        ("initial_faults", Json.Int before);
                        ("shrunk_faults", Json.Int after);
                      ] ))
                shrinks) );
         ("suite_vcs", Json.Int (List.length suite));
         ("suite_proved", Json.Int rep.Bi_core.Verifier.proved);
         ("suite_wall_s", Json.Float rep.Bi_core.Verifier.wall_time_s);
         ("suite_max_vc_s", Json.Float rep.Bi_core.Verifier.max_time_s);
       ])

(* ------------------------------------------------------------------ *)
(* Resilient store: the price of surviving a faulty wire — retries per
   operation, failover latency, breaker churn — on the fixed replicated
   crash/restart scenario, plus the positive control and the cost of
   the rs suite.                                                       *)

let run_rs_bench () =
  Format.fprintf ppf
    "Resilient store: retries, failover, breaker churn under faults@.";
  let s = Bi_app.Rs_check.bench_stats () in
  Format.fprintf ppf
    "    %d ops, %d attempts (%d retries, %.2f retries/op), %d dup-table \
     hits, %d applied@."
    s.Bi_app.Rs_check.ops s.Bi_app.Rs_check.attempts s.Bi_app.Rs_check.retries
    (float_of_int s.Bi_app.Rs_check.retries
    /. float_of_int s.Bi_app.Rs_check.ops)
    s.Bi_app.Rs_check.dup_hits s.Bi_app.Rs_check.applied;
  Format.fprintf ppf
    "    %d failovers (post-crash read in %d simulated rounds), breaker %d \
     opens / %d closes, %d rounds total@."
    s.Bi_app.Rs_check.failovers s.Bi_app.Rs_check.failover_rounds
    s.Bi_app.Rs_check.breaker_opens s.Bi_app.Rs_check.breaker_closes
    s.Bi_app.Rs_check.rounds;
  let c = Bi_app.Rs_check.positive_control () in
  Format.fprintf ppf
    "    positive control: plain lost=%b resilient ok=%b, plan shrunk to %d \
     decision(s), replay fails=%b@."
    c.Bi_app.Rs_check.plain_failed c.Bi_app.Rs_check.resilient_ok
    (List.length c.Bi_app.Rs_check.shrunk)
    c.Bi_app.Rs_check.replay_fails;
  let suite = Bi_app.Rs_check.vcs () in
  let rep = Bi_core.Verifier.discharge ~jobs:1 suite in
  Format.fprintf ppf
    "    rs suite: %d VCs in %.3f s wall (%d proved, slowest %.3f s)@."
    (List.length suite) rep.Bi_core.Verifier.wall_time_s
    rep.Bi_core.Verifier.proved rep.Bi_core.Verifier.max_time_s;
  record "rs"
    (Json.Obj
       [
         ("ops", Json.Int s.Bi_app.Rs_check.ops);
         ("attempts", Json.Int s.Bi_app.Rs_check.attempts);
         ("retries", Json.Int s.Bi_app.Rs_check.retries);
         ( "retries_per_op",
           Json.Float
             (float_of_int s.Bi_app.Rs_check.retries
             /. float_of_int s.Bi_app.Rs_check.ops) );
         ("failovers", Json.Int s.Bi_app.Rs_check.failovers);
         ("failover_rounds", Json.Int s.Bi_app.Rs_check.failover_rounds);
         ("breaker_opens", Json.Int s.Bi_app.Rs_check.breaker_opens);
         ("breaker_closes", Json.Int s.Bi_app.Rs_check.breaker_closes);
         ("dup_table_hits", Json.Int s.Bi_app.Rs_check.dup_hits);
         ("applied", Json.Int s.Bi_app.Rs_check.applied);
         ("sim_rounds", Json.Int s.Bi_app.Rs_check.rounds);
         ( "positive_control",
           Json.Obj
             [
               ("plain_lost", Json.Bool c.Bi_app.Rs_check.plain_failed);
               ("resilient_ok", Json.Bool c.Bi_app.Rs_check.resilient_ok);
               ( "shrunk_decisions",
                 Json.Int (List.length c.Bi_app.Rs_check.shrunk) );
               ("replay_fails", Json.Bool c.Bi_app.Rs_check.replay_fails);
             ] );
         ("suite_vcs", Json.Int (List.length suite));
         ("suite_proved", Json.Int rep.Bi_core.Verifier.proved);
         ("suite_wall_s", Json.Float rep.Bi_core.Verifier.wall_time_s);
         ("suite_max_vc_s", Json.Float rep.Bi_core.Verifier.max_time_s);
       ])

(* ------------------------------------------------------------------ *)
(* Sharded store: throughput vs shard spread on rate-limited nodes, and
   the client-visible cost of a live shard migration — write-pause
   rounds, keys and duplicate-table entries carried, re-routes.        *)

let run_shard_bench () =
  Format.fprintf ppf
    "Sharded store: throughput vs shard spread, live-migration pause@.";
  let s = Bi_app.Sh_check.bench_stats () in
  List.iter
    (fun p ->
      Format.fprintf ppf
        "    %d node(s), %d shards: %d ops in %d rounds (%d ops/kround)@."
        p.Bi_app.Sh_check.bp_nodes p.Bi_app.Sh_check.bp_nshards
        p.Bi_app.Sh_check.bp_ops p.Bi_app.Sh_check.bp_rounds
        p.Bi_app.Sh_check.bp_ops_per_kround)
    s.Bi_app.Sh_check.points;
  Format.fprintf ppf
    "    live migration: %d keys + %d dup entries carried, %d pause \
     rounds, %d client re-routes, %d rounds total@."
    s.Bi_app.Sh_check.mig_keys_moved s.Bi_app.Sh_check.mig_dups_carried
    s.Bi_app.Sh_check.mig_pause_rounds
    s.Bi_app.Sh_check.mig_wrong_shard_retries s.Bi_app.Sh_check.mig_rounds;
  let suite = Bi_app.Sh_check.vcs () in
  let rep = Bi_core.Verifier.discharge ~jobs:1 suite in
  Format.fprintf ppf
    "    sh suite: %d VCs in %.3f s wall (%d proved, slowest %.3f s)@."
    (List.length suite) rep.Bi_core.Verifier.wall_time_s
    rep.Bi_core.Verifier.proved rep.Bi_core.Verifier.max_time_s;
  record "shard"
    (Json.Obj
       [
         ( "throughput",
           Json.List
             (List.map
                (fun p ->
                  Json.Obj
                    [
                      ("nodes", Json.Int p.Bi_app.Sh_check.bp_nodes);
                      ("nshards", Json.Int p.Bi_app.Sh_check.bp_nshards);
                      ("ops", Json.Int p.Bi_app.Sh_check.bp_ops);
                      ("rounds", Json.Int p.Bi_app.Sh_check.bp_rounds);
                      ( "ops_per_kround",
                        Json.Int p.Bi_app.Sh_check.bp_ops_per_kround );
                    ])
                s.Bi_app.Sh_check.points) );
         ( "migration",
           Json.Obj
             [
               ("keys_moved", Json.Int s.Bi_app.Sh_check.mig_keys_moved);
               ("dups_carried", Json.Int s.Bi_app.Sh_check.mig_dups_carried);
               ("pause_rounds", Json.Int s.Bi_app.Sh_check.mig_pause_rounds);
               ( "wrong_shard_retries",
                 Json.Int s.Bi_app.Sh_check.mig_wrong_shard_retries );
               ("sim_rounds", Json.Int s.Bi_app.Sh_check.mig_rounds);
             ] );
         ("suite_vcs", Json.Int (List.length suite));
         ("suite_proved", Json.Int rep.Bi_core.Verifier.proved);
         ("suite_wall_s", Json.Float rep.Bi_core.Verifier.wall_time_s);
         ("suite_max_vc_s", Json.Float rep.Bi_core.Verifier.max_time_s);
       ])

(* ------------------------------------------------------------------ *)
(* Hot path: flat-combining batch apply, zero-copy framing, pooled
   request buffers — the three erased-mode optimizations of the hp
   suite, each against its slow reference.                             *)

module Hp_cnt = struct
  type t = int ref
  type op = Incr
  type ret = int

  let create () = ref 0

  let apply t Incr =
    incr t;
    !t

  include Bi_nr.Seq_ds.Batch_of_apply (struct
    type nonrec t = t
    type nonrec op = op
    type nonrec ret = ret

    let apply = apply
  end)

  let is_read_only (Incr : op) = false
end

module Hp_nr = Bi_nr.Nr.Make (Hp_cnt)

let run_hp_bench () =
  let module P = Bi_app.Protocol in
  let module Pkt = Bi_net.Pkt in
  let module Iov = Bi_net.Pkt.Iov in
  let module Ua = Bi_ulib.Ualloc in
  Format.fprintf ppf
    "Hot path: batch apply, zero-copy framing, buffer pool@.";
  (* Batch apply: one kick serves k submitted ops, so the per-pass
     overhead (combiner CAS, log reservation, replay lock, tail publish)
     amortizes k ways. *)
  let total = 1 lsl 16 in
  let batch_point k =
    let nr = Hp_nr.create ~replicas:1 ~threads_per_replica:k () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to total / k do
      for i = 0 to k - 1 do
        Hp_nr.submit nr ~thread:i Hp_cnt.Incr
      done;
      ignore (Hp_nr.kick nr ~replica:0 : bool);
      for i = 0 to k - 1 do
        ignore (Hp_nr.drain nr ~thread:i : int option)
      done
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let ops_per_s = float_of_int total /. dt in
    Format.fprintf ppf
      "    batch k=%2d: %9.0f ops/s  (%d entries, %d publishes)@." k
      ops_per_s (Hp_nr.log_entries nr) (Hp_nr.publishes nr);
    (k, ops_per_s, Hp_nr.publishes nr)
  in
  let sweep = List.map batch_point [ 1; 2; 4; 8; 16; 32 ] in
  let ops_at k = match List.assoc_opt k (List.map (fun (k, o, _) -> (k, o)) sweep) with Some o -> o | None -> nan in
  let batch_speedup = ops_at 32 /. ops_at 1 in
  Format.fprintf ppf "    batch-apply speedup (k=32 vs k=1): %.2fx@."
    batch_speedup;
  (* Zero-copy framing: one ~1.4 KB storage response through
     seal + UDP + IP + Ethernet, copying vs vectored. *)
  let value = String.make 1320 'd' in
  let resp = P.Value { value; crc = P.crc32 value } in
  let dst_mac = "\x02\x00\x00\x00\x00\x01"
  and src_mac = "\x02\x00\x00\x00\x00\x02" in
  let src_ip = 0x0A000001l and dst_ip = 0x0A000002l in
  let vectored () =
    Iov.materialize
      (Bi_net.Eth.frame_iov ~dst:dst_mac ~src:src_mac
         ~ethertype:Bi_net.Eth.ethertype_ipv4
         (Bi_net.Ip.packet_iov ~src:src_ip ~dst:dst_ip
            ~proto:Bi_net.Ip.proto_udp ~ttl:64
            (Bi_net.Udp.datagram_iov ~src_ip ~dst_ip ~src_port:9000
               ~dst_port:9001
               (P.seal_iov ~id:1 (P.encode_resp_iov resp)))))
  in
  let copying () =
    Bi_net.Eth.encode
      {
        Bi_net.Eth.dst = dst_mac;
        src = src_mac;
        ethertype = Bi_net.Eth.ethertype_ipv4;
        payload =
          Bi_net.Ip.encode
            {
              Bi_net.Ip.src = src_ip;
              dst = dst_ip;
              proto = Bi_net.Ip.proto_udp;
              ttl = 64;
              payload =
                Bi_net.Udp.encode ~src_ip ~dst_ip
                  {
                    Bi_net.Udp.src_port = 9000;
                    dst_port = 9001;
                    payload = P.seal ~id:1 (P.encode_resp resp);
                  };
            };
      }
  in
  assert (vectored () = copying ());
  let frame_iters = 2000 in
  let time_frames f =
    Pkt.reset_copy_stats ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to frame_iters do
      ignore (f () : bytes)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (dt /. float_of_int frame_iters *. 1e9, Pkt.copied_bytes () / frame_iters)
  in
  let ns_iov, bytes_iov = time_frames vectored in
  let ns_copy, bytes_copy = time_frames copying in
  let copy_ratio = float_of_int bytes_copy /. float_of_int bytes_iov in
  Format.fprintf ppf
    "    framing (%d B frame): copying %d B moved/msg (%.0f ns), \
     vectored %d B moved/msg (%.0f ns) — %.2fx fewer bytes copied@."
    (Bytes.length (vectored ()))
    bytes_copy ns_copy bytes_iov ns_iov copy_ratio;
  (* Buffer pool: 4 KiB request scratch on a fragmented first-fit arena
     (512 small holes ahead of the usable space) vs the size-classed
     stack.  [scans] counts holes examined — the deterministic form of
     the same win. *)
  let arena_size = 1 lsl 20 in
  let frag = Ua.create ~size:arena_size in
  let smalls = Array.init 1024 (fun _ -> Option.get (Ua.alloc frag 16)) in
  Array.iteri (fun i off -> if i mod 2 = 0 then Ua.free frag off) smalls;
  let pool = Ua.Pool.create ~size:arena_size () in
  (match Ua.Pool.alloc pool 4096 with
  | Some off -> Ua.Pool.free pool off
  | None -> assert false);
  let alloc_iters = 20_000 in
  let time_allocs alloc free arena =
    Ua.reset_scans arena;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to alloc_iters do
      match alloc 4096 with
      | Some off -> free off
      | None -> assert false
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (dt /. float_of_int alloc_iters *. 1e9,
     float_of_int (Ua.scans arena) /. float_of_int alloc_iters)
  in
  let ns_arena, scans_arena =
    time_allocs (Ua.alloc frag) (Ua.free frag) frag
  in
  let ns_pool, scans_pool =
    time_allocs (Ua.Pool.alloc pool) (Ua.Pool.free pool) (Ua.Pool.arena pool)
  in
  let pool_speedup = ns_arena /. ns_pool in
  Format.fprintf ppf
    "    pool: first-fit %.0f ns/op (%.0f hole scans/op), pooled %.0f \
     ns/op (%.1f scans/op) — %.2fx faster@."
    ns_arena scans_arena ns_pool scans_pool pool_speedup;
  let suite = Bi_app.Hp_check.vcs () in
  let rep = Bi_core.Verifier.discharge ~jobs:1 suite in
  Format.fprintf ppf
    "    hp suite: %d VCs in %.3f s wall (%d proved, slowest %.3f s)@."
    (List.length suite) rep.Bi_core.Verifier.wall_time_s
    rep.Bi_core.Verifier.proved rep.Bi_core.Verifier.max_time_s;
  record "hp"
    (Json.Obj
       [
         ( "batch_apply",
           Json.Obj
             [
               ( "sweep",
                 Json.List
                   (List.map
                      (fun (k, ops, pubs) ->
                        Json.Obj
                          [
                            ("batch", Json.Int k);
                            ("ops_per_s", Json.Float ops);
                            ("publishes", Json.Int pubs);
                          ])
                      sweep) );
               ("total_ops", Json.Int total);
               ("speedup_k32_vs_k1", Json.Float batch_speedup);
             ] );
         ( "framing",
           Json.Obj
             [
               ("frame_bytes", Json.Int (Bytes.length (vectored ())));
               ("bytes_copied_per_msg_copying", Json.Int bytes_copy);
               ("bytes_copied_per_msg_vectored", Json.Int bytes_iov);
               ("bytes_copied_ratio", Json.Float copy_ratio);
               ("ns_per_msg_copying", Json.Float ns_copy);
               ("ns_per_msg_vectored", Json.Float ns_iov);
             ] );
         ( "pool",
           Json.Obj
             [
               ("ns_per_op_first_fit", Json.Float ns_arena);
               ("ns_per_op_pooled", Json.Float ns_pool);
               ("scans_per_op_first_fit", Json.Float scans_arena);
               ("scans_per_op_pooled", Json.Float scans_pool);
               ("speedup", Json.Float pool_speedup);
             ] );
         ("suite_vcs", Json.Int (List.length suite));
         ("suite_proved", Json.Int rep.Bi_core.Verifier.proved);
         ("suite_wall_s", Json.Float rep.Bi_core.Verifier.wall_time_s);
         ("suite_max_vc_s", Json.Float rep.Bi_core.Verifier.max_time_s);
       ])

(* ------------------------------------------------------------------ *)
(* Workload engine: the capacity-planning artifact — throughput and
   latency percentiles vs offered load, with and without admission
   control, plus the million-client headline row.                      *)

let json_of_wl_row (r : Bi_load.Wl_check.bench_row) =
  let s = r.Bi_load.Wl_check.s in
  Json.Obj
    [
      ("label", Json.Str r.Bi_load.Wl_check.label);
      ("admission", Json.Bool r.Bi_load.Wl_check.admission);
      ("offered_load_pct", Json.Int r.Bi_load.Wl_check.load_pct);
      ("clients", Json.Int s.Bi_load.Engine.clients);
      ("issued", Json.Int s.Bi_load.Engine.issued);
      ("attempts", Json.Int s.Bi_load.Engine.attempts);
      ("completed", Json.Int s.Bi_load.Engine.completed);
      ("shed", Json.Int s.Bi_load.Engine.shed);
      ("gave_up", Json.Int s.Bi_load.Engine.gave_up);
      ("duration_ticks", Json.Int s.Bi_load.Engine.duration);
      ("throughput_per_tick", Json.Float s.Bi_load.Engine.throughput);
      ("p50_ticks", Json.Float s.Bi_load.Engine.p50);
      ("p99_ticks", Json.Float s.Bi_load.Engine.p99);
      ("p999_ticks", Json.Float s.Bi_load.Engine.p999);
      ("mean_latency_ticks", Json.Float s.Bi_load.Engine.mean_latency);
      ("max_queue", Json.Int s.Bi_load.Engine.max_queue);
      ("min_client_completed", Json.Int s.Bi_load.Engine.min_client_completed);
      ("invariants_ok", Json.Bool s.Bi_load.Engine.invariants_ok);
    ]

let run_wl_bench () =
  Format.fprintf ppf
    "Workload engine: latency vs offered load, admission-control knee@.";
  Format.fprintf ppf
    "    open loop, 100k simulated clients, Zipf(1.1) keys, Pareto(1.5) \
     service@.";
  let sweep = Bi_load.Wl_check.bench_sweep () in
  Format.fprintf ppf
    "    %-20s %10s %8s %8s %8s %9s %9s@." "arm" "completed" "p50" "p99"
    "p999" "shed" "maxqueue";
  List.iter
    (fun (r : Bi_load.Wl_check.bench_row) ->
      let s = r.Bi_load.Wl_check.s in
      Format.fprintf ppf
        "    %-20s %10d %8.1f %8.1f %8.1f %9d %9d@."
        r.Bi_load.Wl_check.label s.Bi_load.Engine.completed
        s.Bi_load.Engine.p50 s.Bi_load.Engine.p99 s.Bi_load.Engine.p999
        s.Bi_load.Engine.shed s.Bi_load.Engine.max_queue)
    sweep;
  let headline = Bi_load.Wl_check.bench_headline () in
  let hs = headline.Bi_load.Wl_check.s in
  Format.fprintf ppf
    "    headline: %d clients over 4 sharded nodes, bursty arrivals@."
    hs.Bi_load.Engine.clients;
  Format.fprintf ppf
    "      completed %d / issued %d, shed %d, p50 %.1f / p99 %.1f / p999 \
     %.1f ticks, max queue %d@."
    hs.Bi_load.Engine.completed hs.Bi_load.Engine.issued
    hs.Bi_load.Engine.shed hs.Bi_load.Engine.p50 hs.Bi_load.Engine.p99
    hs.Bi_load.Engine.p999 hs.Bi_load.Engine.max_queue;
  let suite = Bi_load.Wl_check.vcs () in
  let rep = Bi_core.Verifier.discharge ~jobs:1 suite in
  Format.fprintf ppf
    "    wl suite: %d VCs in %.3f s wall (%d proved, slowest %.3f s)@."
    (List.length suite) rep.Bi_core.Verifier.wall_time_s
    rep.Bi_core.Verifier.proved rep.Bi_core.Verifier.max_time_s;
  record "wl"
    (Json.Obj
       [
         ("sweep", Json.List (List.map json_of_wl_row sweep));
         ("headline", json_of_wl_row headline);
         ("suite_vcs", Json.Int (List.length suite));
         ("suite_proved", Json.Int rep.Bi_core.Verifier.proved);
         ("suite_wall_s", Json.Float rep.Bi_core.Verifier.wall_time_s);
         ("suite_max_vc_s", Json.Float rep.Bi_core.Verifier.max_time_s);
       ])

(* ------------------------------------------------------------------ *)
(* netd: worker-pool scaling of the network daemon in virtual time.
   Each arm runs the same quiet two-kernel world — 6 client threads,
   4 puts each, 6-tick service time per request — varying only the
   worker-pool size; the figure of merit is acknowledged ops per
   kilotick of virtual time.                                           *)

let run_netd_bench () =
  Format.fprintf ppf "netd: worker-pool scaling (virtual time)@.";
  Format.fprintf ppf
    "    quiet wire, 6 client threads x 4 puts, service 6 ticks/request@.";
  let rows = Bi_netd.Nd_check.bench_scaling ~workers:[ 1; 2; 4; 8 ] () in
  Format.fprintf ppf "    %-8s %12s %16s@." "workers" "finish-tick"
    "acks/kilotick";
  List.iter
    (fun (w, ticks, rate) ->
      Format.fprintf ppf "    %-8d %12d %16.2f@." w ticks rate)
    rows;
  (match rows with
  | (_, t1, _) :: _ -> (
      match List.rev rows with
      | (_, tn, _) :: _ when tn > 0 ->
          Format.fprintf ppf "    speedup 1 -> %d workers: %.2fx@."
            (match List.rev rows with (w, _, _) :: _ -> w | [] -> 0)
            (float_of_int t1 /. float_of_int tn)
      | _ -> ())
  | [] -> ());
  let suite = Bi_netd.Nd_check.vcs () in
  let rep = Bi_core.Verifier.discharge ~jobs:1 suite in
  Format.fprintf ppf
    "    nd suite: %d VCs in %.3f s wall (%d proved, slowest %.3f s)@."
    (List.length suite) rep.Bi_core.Verifier.wall_time_s
    rep.Bi_core.Verifier.proved rep.Bi_core.Verifier.max_time_s;
  record "netd"
    (Json.Obj
       [
         ( "scaling",
           Json.List
             (List.map
                (fun (w, ticks, rate) ->
                  Json.Obj
                    [
                      ("workers", Json.Int w);
                      ("finish_ticks", Json.Int ticks);
                      ("acks_per_kilotick", Json.Float rate);
                    ])
                rows) );
         ("suite_vcs", Json.Int (List.length suite));
         ("suite_proved", Json.Int rep.Bi_core.Verifier.proved);
         ("suite_wall_s", Json.Float rep.Bi_core.Verifier.wall_time_s);
         ("suite_max_vc_s", Json.Float rep.Bi_core.Verifier.max_time_s);
       ])

(* recovery: what crash-durable exactly-once costs.  Steady state: the
   netd scaling world with the redo journal on (the default) vs off —
   the journal adds one append+sync per mutation.  Restart: N journaled
   commits against a direct filesystem world, then a fresh core replays
   the journal; the figure of merit is replay wall time and block I/O
   as a function of journal length, and the near-zero replay after a
   checkpoint collapses the journal to one snapshot.                   *)

let run_recovery_bench () =
  Format.fprintf ppf "recovery: journal overhead and replay cost@.";
  (* Control: the scaling world's virtual-time rate with the journal on
     (the default) vs off.  Journal appends are synchronous write+fsync
     syscalls, which cost host time but no virtual ticks, so these rates
     must be identical — the journal may not lose acks or stretch the
     virtual critical path. *)
  Format.fprintf ppf "    steady state (netd scaling world, 6 x 4 puts):@.";
  let arms = [ 1; 4 ] in
  let on = Bi_netd.Nd_check.bench_scaling ~workers:arms () in
  let off = Bi_netd.Nd_check.bench_scaling ~journal:false ~workers:arms () in
  Format.fprintf ppf "    %-8s %17s %17s@." "workers" "acks/ktick (jrnl)"
    "acks/ktick (none)";
  let control_rows =
    List.map2
      (fun (w, ton, ron) (_, toff, roff) ->
        Format.fprintf ppf "    %-8d %17.2f %17.2f@." w ron roff;
        (w, ton, ron, toff, roff))
      on off
  in
  (* Per-mutation cost of the commit protocol on the real stack: puts on
     an fs store with the journal (encode + CRC + append write + sync
     per mutation) vs the same store direct, best of 3 passes.
     Checkpointing is disabled so this prices the pure append path. *)
  let micro ~journal =
    let n = 2_000 in
    let best = ref infinity in
    for _ = 1 to 3 do
      let disk = Bi_hw.Device.Disk.create ~sectors:32768 () in
      let fs = Bi_fs.Fs.mkfs (Bi_fs.Block_dev.of_disk disk) in
      let j =
        if journal then
          Some
            (Bi_app.Journal.create (Bi_app.Journal.fs_sink fs ~path:"/journal"))
        else None
      in
      let core =
        Bi_app.Node_core.create ?journal:j ~journal_checkpoint:max_int
          (Bi_app.Node_core.fs_store fs)
      in
      let t0 = Unix.gettimeofday () in
      for i = 1 to n do
        let value = Printf.sprintf "v%d" i in
        ignore
          (Bi_app.Node_core.handle core
             (Bi_app.Protocol.Put
                {
                  key = Printf.sprintf "k%d" (i mod 64);
                  value;
                  crc = Bi_app.Protocol.crc32 value;
                  txn = Some { Bi_app.Protocol.client = 1 + (i mod 8); seq = i };
                }))
      done;
      best :=
        Float.min !best (1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int n)
    done;
    !best
  in
  let ns_on = micro ~journal:true in
  let ns_off = micro ~journal:false in
  let overhead_pct =
    if ns_off > 0.0 then 100.0 *. ((ns_on -. ns_off) /. ns_off) else 0.0
  in
  Format.fprintf ppf
    "    per-mutation (fs store, 2000 puts): %.0f ns journaled vs %.0f ns \
     direct (+%.1f%%)@."
    ns_on ns_off overhead_pct;
  (* Replay cost vs journal length. *)
  let replay_arm ~muts =
    let disk = Bi_hw.Device.Disk.create ~sectors:16384 () in
    let bd = Bi_fs.Block_dev.of_disk disk in
    let fs = Bi_fs.Fs.mkfs bd in
    let j = Bi_app.Journal.create (Bi_app.Journal.fs_sink fs ~path:"/journal") in
    let core =
      Bi_app.Node_core.create ~journal:j ~journal_checkpoint:max_int
        (Bi_app.Node_core.fs_store fs)
    in
    for i = 1 to muts do
      let key = Printf.sprintf "k%d" (i mod 64) in
      let value = Printf.sprintf "v%d" i in
      ignore
        (Bi_app.Node_core.handle core
           (Bi_app.Protocol.Put
              {
                key;
                value;
                crc = Bi_app.Protocol.crc32 value;
                txn = Some { Bi_app.Protocol.client = 1 + (i mod 8); seq = i };
              }))
    done;
    let jbytes = Bi_app.Journal.size j in
    (* Restart: a fresh core over the same (durable) filesystem. *)
    let recovered =
      Bi_app.Node_core.create
        ~journal:(Bi_app.Journal.create (Bi_app.Journal.fs_sink fs ~path:"/journal"))
        (Bi_app.Node_core.fs_store fs)
    in
    let io0 = Bi_fs.Block_dev.io_count bd in
    let t0 = Unix.gettimeofday () in
    let r = Bi_app.Node_core.recover recovered in
    let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
    let io = Bi_fs.Block_dev.io_count bd - io0 in
    (* Checkpoint, restart again: replay collapses to one snapshot. *)
    (match Bi_app.Node_core.checkpoint recovered with
    | Ok () -> ()
    | Error _ -> ());
    let after =
      Bi_app.Node_core.create
        ~journal:(Bi_app.Journal.create (Bi_app.Journal.fs_sink fs ~path:"/journal"))
        (Bi_app.Node_core.fs_store fs)
    in
    let t1 = Unix.gettimeofday () in
    let r2 = Bi_app.Node_core.recover after in
    let ms2 = 1000.0 *. (Unix.gettimeofday () -. t1) in
    (muts, jbytes, r.Bi_app.Node_core.r_records, r.Bi_app.Node_core.r_redone,
     ms, io, r2.Bi_app.Node_core.r_records, ms2)
  in
  Format.fprintf ppf "    replay (direct fs world, 64-key space):@.";
  Format.fprintf ppf "    %-8s %10s %8s %8s %10s %8s %14s@." "commits"
    "jrnl-bytes" "records" "redone" "replay-ms" "blk-io" "post-ckpt-recs";
  let replay_rows =
    List.map
      (fun muts ->
        let (m, jb, recs, redone, ms, io, recs2, ms2) = replay_arm ~muts in
        Format.fprintf ppf "    %-8d %10d %8d %8d %10.3f %8d %11d (%.3f ms)@."
          m jb recs redone ms io recs2 ms2;
        (m, jb, recs, redone, ms, io, recs2, ms2))
      [ 50; 200; 800 ]
  in
  record "recovery"
    (Json.Obj
       [
         ( "netd_control",
           Json.List
             (List.map
                (fun (w, ton, ron, toff, roff) ->
                  Json.Obj
                    [
                      ("workers", Json.Int w);
                      ("finish_ticks_journal", Json.Int ton);
                      ("acks_per_kilotick_journal", Json.Float ron);
                      ("finish_ticks_nojournal", Json.Int toff);
                      ("acks_per_kilotick_nojournal", Json.Float roff);
                    ])
                control_rows) );
         ( "per_mutation",
           Json.Obj
             [
               ("ns_journaled", Json.Float ns_on);
               ("ns_direct", Json.Float ns_off);
               ("overhead_pct", Json.Float overhead_pct);
             ] );
         ( "replay",
           Json.List
             (List.map
                (fun (m, jb, recs, redone, ms, io, recs2, ms2) ->
                  Json.Obj
                    [
                      ("commits", Json.Int m);
                      ("journal_bytes", Json.Int jb);
                      ("records_replayed", Json.Int recs);
                      ("redone", Json.Int redone);
                      ("replay_ms", Json.Float ms);
                      ("block_io", Json.Int io);
                      ("post_checkpoint_records", Json.Int recs2);
                      ("post_checkpoint_ms", Json.Float ms2);
                    ])
                replay_rows) );
       ])

(* ------------------------------------------------------------------ *)

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
    | "table1" ->
        Bi_eval.Report.table1 ppf;
        record_table1 ()
    | "table2" ->
        Bi_eval.Report.table2 ppf;
        record_table2 ()
    | "fig1a" -> Bi_eval.Report.fig1a ppf
    | "fig1b" ->
        Bi_eval.Report.fig1b ppf;
        record_fig1b ()
    | "fig1c" ->
        Bi_eval.Report.fig1c ppf;
        record_fig1c ()
    | "ratio" -> Bi_eval.Report.ratio ppf
    | "micro" -> run_micro ()
    | "ablations" -> run_ablations ()
    | "discharge" -> run_discharge_bench ()
    | "mc" -> run_mc_bench ()
    | "fi" -> run_fi_bench ()
    | "rs" -> run_rs_bench ()
    | "shard" -> run_shard_bench ()
    | "hp" -> run_hp_bench ()
    | "wl" -> run_wl_bench ()
    | "netd" -> run_netd_bench ()
    | "recovery" -> run_recovery_bench ()
    | "all" ->
        Bi_eval.Report.all ppf;
        record_table1 ();
        record_table2 ();
        record_fig1b ();
        record_fig1c ();
        Format.fprintf ppf "@.";
        run_discharge_bench ();
        Format.fprintf ppf "@.";
        run_ablations ();
        Format.fprintf ppf "@.";
        run_mc_bench ();
        Format.fprintf ppf "@.";
        run_fi_bench ();
        Format.fprintf ppf "@.";
        run_rs_bench ();
        Format.fprintf ppf "@.";
        run_shard_bench ();
        Format.fprintf ppf "@.";
        run_hp_bench ();
        Format.fprintf ppf "@.";
        run_wl_bench ();
        Format.fprintf ppf "@.";
        run_netd_bench ();
        Format.fprintf ppf "@.";
        run_recovery_bench ();
        Format.fprintf ppf "@.";
        run_micro ()
    | other ->
        Format.fprintf ppf
          "unknown target %s (expected \
           table1|table2|fig1a|fig1b|fig1c|ratio|discharge|ablations|mc|fi|rs|shard|hp|wl|netd|recovery|micro|all)@."
          other;
        exit 2
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
