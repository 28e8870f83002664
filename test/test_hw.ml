(* Hardware model tests: address arithmetic, physical memory, frame
   allocator, PTE codec, MMU walker, TLB, and devices. *)

module Addr = Bi_hw.Addr
module Phys_mem = Bi_hw.Phys_mem
module Frame_alloc = Bi_hw.Frame_alloc
module Pte = Bi_hw.Pte
module Mmu = Bi_hw.Mmu
module Tlb = Bi_hw.Tlb
module Pwc = Bi_hw.Pwc
module Cost_model = Bi_hw.Cost_model
module Device = Bi_hw.Device
module Machine = Bi_hw.Machine

let check = Alcotest.check

let qtest name count gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let gen_vaddr47 = QCheck2.Gen.(map Int64.of_int (int_bound ((1 lsl 47) - 1)))

(* ------------------------------------------------------------------ *)
(* Addr *)

let test_addr_constants () =
  check Alcotest.int64 "page" 4096L Addr.page_size;
  check Alcotest.int64 "2m" 0x200000L Addr.large_page_size;
  check Alcotest.int64 "1g" 0x40000000L Addr.huge_page_size;
  check Alcotest.int "512 entries" 512 Addr.entries_per_table

let test_addr_canonical () =
  check Alcotest.bool "low half" true (Addr.is_canonical 0x7FFF_FFFF_FFFFL);
  check Alcotest.bool "bit48 set" false (Addr.is_canonical 0x1_0000_0000_0000L);
  check Alcotest.bool "kernel half" true (Addr.is_canonical (-1L));
  check Alcotest.bool "non-canonical high" false
    (Addr.is_canonical 0x8000_0000_0000L)

let test_addr_indices_known () =
  let va = Addr.of_indices ~l4:1 ~l3:2 ~l2:3 ~l1:4 ~offset:5L in
  check Alcotest.int "l4" 1 (Addr.l4_index va);
  check Alcotest.int "l3" 2 (Addr.l3_index va);
  check Alcotest.int "l2" 3 (Addr.l2_index va);
  check Alcotest.int "l1" 4 (Addr.l1_index va);
  check Alcotest.int64 "offset" 5L (Addr.offset_4k va)

let prop_addr_roundtrip =
  qtest "of_indices inverts extractors" 500
    QCheck2.Gen.(
      tup5 (int_bound 255) (int_bound 511) (int_bound 511) (int_bound 511)
        (map Int64.of_int (int_bound 4095)))
    (fun (l4, l3, l2, l1, offset) ->
      let va = Addr.of_indices ~l4 ~l3 ~l2 ~l1 ~offset in
      Addr.l4_index va = l4 && Addr.l3_index va = l3 && Addr.l2_index va = l2
      && Addr.l1_index va = l1
      && Addr.offset_4k va = offset)

let prop_align_down =
  qtest "align_down is aligned and within one unit" 500 gen_vaddr47 (fun va ->
      let d = Addr.align_down va Addr.large_page_size in
      Addr.is_aligned d Addr.large_page_size
      && d <= va
      && Int64.sub va d < Addr.large_page_size)

let prop_vpage =
  qtest "vpage_4k clears offset only" 500 gen_vaddr47 (fun va ->
      let p = Addr.vpage_4k va in
      Addr.is_aligned p Addr.page_size && Int64.sub va p = Addr.offset_4k va)

(* ------------------------------------------------------------------ *)
(* Phys_mem *)

let test_phys_mem_rw () =
  let m = Phys_mem.create ~size:8192 in
  Phys_mem.write_u64 m 8L 0x1122334455667788L;
  check Alcotest.int64 "u64 roundtrip" 0x1122334455667788L
    (Phys_mem.read_u64 m 8L);
  Phys_mem.write_u8 m 100L 0xAB;
  check Alcotest.int "u8 roundtrip" 0xAB (Phys_mem.read_u8 m 100L)

let test_phys_mem_little_endian () =
  let m = Phys_mem.create ~size:4096 in
  Phys_mem.write_u64 m 0L 0x0102030405060708L;
  check Alcotest.int "LSB first" 8 (Phys_mem.read_u8 m 0L);
  check Alcotest.int "MSB last" 1 (Phys_mem.read_u8 m 7L)

let test_phys_mem_bounds () =
  let m = Phys_mem.create ~size:4096 in
  let expect_bad f =
    match f () with
    | exception Phys_mem.Bad_address _ -> ()
    | _ -> Alcotest.fail "Bad_address expected"
  in
  expect_bad (fun () -> Phys_mem.read_u64 m 4096L);
  expect_bad (fun () -> Phys_mem.read_u64 m 4090L);
  expect_bad (fun () -> Phys_mem.read_u64 m 13L);
  expect_bad (fun () -> Phys_mem.write_u64 m (-8L) 0L);
  expect_bad (fun () -> Phys_mem.read_u8 m 5000L)

let test_phys_mem_bytes () =
  let m = Phys_mem.create ~size:4096 in
  Phys_mem.write_bytes m 10L (Bytes.of_string "hello");
  check Alcotest.string "bytes roundtrip" "hello"
    (Bytes.to_string (Phys_mem.read_bytes m 10L 5))

let test_phys_mem_zero_frame () =
  let m = Phys_mem.create ~size:8192 in
  Phys_mem.write_u64 m 4096L 55L;
  Phys_mem.zero_frame m 4096L;
  check Alcotest.int64 "zeroed" 0L (Phys_mem.read_u64 m 4096L);
  match Phys_mem.zero_frame m 4100L with
  | exception Phys_mem.Bad_address _ -> ()
  | _ -> Alcotest.fail "unaligned zero_frame must fail"

let test_phys_mem_huge_address () =
  (* Regression: addresses at or above 2^62 used to be converted with
     [Int64.to_int] before the bounds check, wrap negative, and surface
     as [Invalid_argument] from [Bytes] instead of [Bad_address]. *)
  let m = Phys_mem.create ~size:4096 in
  let expect_bad f =
    match f () with
    | exception Phys_mem.Bad_address _ -> ()
    | _ -> Alcotest.fail "Bad_address expected"
  in
  expect_bad (fun () -> Phys_mem.read_u64 m 0x4000_0000_0000_0000L);
  expect_bad (fun () -> Phys_mem.read_u8 m Int64.max_int);
  expect_bad (fun () ->
      Phys_mem.write_u64 m (Int64.logand Int64.max_int (Int64.lognot 7L)) 1L);
  expect_bad (fun () -> Phys_mem.read_u64 m Int64.min_int)

let test_phys_mem_counters () =
  let m = Phys_mem.create ~size:4096 in
  Phys_mem.reset_counters m;
  Phys_mem.write_u64 m 0L 1L;
  ignore (Phys_mem.read_u64 m 0L);
  ignore (Phys_mem.read_u64 m 8L);
  check Alcotest.int "loads" 2 (Phys_mem.loads m);
  check Alcotest.int "stores" 1 (Phys_mem.stores m)

(* First-touch frames against a flat reference: the same seeded script
   of u8/u64/bytes accesses and frame zeroing, biased to straddle frame
   boundaries and the ends of memory, run on [Phys_mem] and on one
   [Bytes] the size of memory.  Every value, every counter and every
   [Bad_address] must agree. *)
module Flat = struct
  type t = { data : Bytes.t; mutable loads : int; mutable stores : int }

  let create size = { data = Bytes.make size '\000'; loads = 0; stores = 0 }

  let at t pa width =
    if pa < 0L || Int64.compare pa (Int64.of_int (Bytes.length t.data - width)) > 0
    then raise (Phys_mem.Bad_address pa);
    Int64.to_int pa

  let aligned8 pa = if Int64.rem pa 8L <> 0L then raise (Phys_mem.Bad_address pa)

  let read_u8 t pa =
    let i = at t pa 1 in
    t.loads <- t.loads + 1;
    Char.code (Bytes.get t.data i)

  let write_u8 t pa v =
    let i = at t pa 1 in
    t.stores <- t.stores + 1;
    Bytes.set t.data i (Char.chr (v land 0xFF))

  let read_u64 t pa =
    aligned8 pa;
    let i = at t pa 8 in
    t.loads <- t.loads + 1;
    Bytes.get_int64_le t.data i

  let write_u64 t pa v =
    aligned8 pa;
    let i = at t pa 8 in
    t.stores <- t.stores + 1;
    Bytes.set_int64_le t.data i v

  let read_bytes t pa len =
    let i = at t pa len in
    t.loads <- t.loads + ((len + 7) / 8);
    Bytes.sub t.data i len

  let write_bytes t pa b =
    let i = at t pa (Bytes.length b) in
    t.stores <- t.stores + ((Bytes.length b + 7) / 8);
    Bytes.blit b 0 t.data i (Bytes.length b)

  let zero_frame t pa =
    if Int64.rem pa 4096L <> 0L then raise (Phys_mem.Bad_address pa);
    let i = at t pa 4096 in
    Bytes.fill t.data i 4096 '\000';
    t.stores <- t.stores + 512
end

type mem_op =
  | R8 of int64
  | W8 of int64 * int
  | R64 of int64
  | W64 of int64 * int64
  | Rb of int64 * int
  | Wb of int64 * bytes
  | Zero of int64

let pp_mem_op = function
  | R8 pa -> Printf.sprintf "read_u8 %Ld" pa
  | W8 (pa, v) -> Printf.sprintf "write_u8 %Ld %d" pa v
  | R64 pa -> Printf.sprintf "read_u64 %Ld" pa
  | W64 (pa, v) -> Printf.sprintf "write_u64 %Ld %Ld" pa v
  | Rb (pa, n) -> Printf.sprintf "read_bytes %Ld %d" pa n
  | Wb (pa, b) -> Printf.sprintf "write_bytes %Ld <%d>" pa (Bytes.length b)
  | Zero pa -> Printf.sprintf "zero_frame %Ld" pa

let gen_mem_op g ~frames =
  let module Gen = Bi_core.Gen in
  let size = frames * 4096 in
  let addr () =
    Int64.of_int
      (match Gen.int g 8 with
      | 0 -> Gen.int_in g (-16) (-1)
      | 1 -> size + Gen.int_in g (-24) 16
      | 2 | 3 | 4 -> (Gen.int_in g 0 frames * 4096) + Gen.int_in g (-12) 12
      | _ -> Gen.int g size)
  in
  let addr8 () =
    let pa = addr () in
    if Gen.int g 8 = 0 then pa else Int64.mul (Int64.div pa 8L) 8L
  in
  let len () = if Gen.int g 8 = 0 then Gen.int_in g 4000 9000 else Gen.int g 40 in
  match Gen.int g 7 with
  | 0 -> R8 (addr ())
  | 1 -> W8 (addr (), Gen.int g 256)
  | 2 -> R64 (addr8 ())
  | 3 -> W64 (addr8 (), Gen.next64 g)
  | 4 -> Rb (addr (), len ())
  | 5 -> Wb (addr (), Bytes.init (len ()) (fun _ -> Char.chr (Gen.int g 256)))
  | _ ->
      let k = Gen.int_in g 0 frames in
      Zero (Int64.of_int ((k * 4096) + if Gen.int g 6 = 0 then 8 else 0))

let test_phys_mem_vs_flat () =
  let frames = 6 in
  let m = Phys_mem.create ~size:(frames * 4096) and f = Flat.create (frames * 4096) in
  let run_mem = function
    | R8 pa -> string_of_int (Phys_mem.read_u8 m pa)
    | W8 (pa, v) -> Phys_mem.write_u8 m pa v; ""
    | R64 pa -> Int64.to_string (Phys_mem.read_u64 m pa)
    | W64 (pa, v) -> Phys_mem.write_u64 m pa v; ""
    | Rb (pa, n) -> Bytes.to_string (Phys_mem.read_bytes m pa n)
    | Wb (pa, b) -> Phys_mem.write_bytes m pa b; ""
    | Zero pa -> Phys_mem.zero_frame m pa; ""
  in
  let run_flat = function
    | R8 pa -> string_of_int (Flat.read_u8 f pa)
    | W8 (pa, v) -> Flat.write_u8 f pa v; ""
    | R64 pa -> Int64.to_string (Flat.read_u64 f pa)
    | W64 (pa, v) -> Flat.write_u64 f pa v; ""
    | Rb (pa, n) -> Bytes.to_string (Flat.read_bytes f pa n)
    | Wb (pa, b) -> Flat.write_bytes f pa b; ""
    | Zero pa -> Flat.zero_frame f pa; ""
  in
  let outcome run op =
    match run op with v -> Ok v | exception Phys_mem.Bad_address pa -> Error pa
  in
  let g = Bi_core.Gen.create 17L in
  (* Untouched frames first: zeroing and reading them must not differ. *)
  let script =
    [ Zero 8192L; R64 8192L; Rb (4090L, 20); Zero 20480L ]
    @ List.init 4000 (fun _ -> gen_mem_op g ~frames)
  in
  let bad = ref 0 in
  List.iteri
    (fun i op ->
      let what = Printf.sprintf "op %d (%s)" i (pp_mem_op op) in
      let got = outcome run_mem op and want = outcome run_flat op in
      if Result.is_error want then incr bad;
      check
        Alcotest.(result string int64)
        what want got;
      check Alcotest.int (what ^ " loads") f.Flat.loads (Phys_mem.loads m);
      check Alcotest.int (what ^ " stores") f.Flat.stores (Phys_mem.stores m))
    script;
  check Alcotest.bool "the script reaches Bad_address" true (!bad > 100);
  check Alcotest.string "whole memory agrees"
    (Bytes.to_string f.Flat.data)
    (Bytes.to_string (Phys_mem.read_bytes m 0L (frames * 4096)))

let test_kernel_create_heap () =
  (* 32 MiB of installed memory costs nothing until it is touched. *)
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let k = Bi_kernel.Kernel.create () in
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  check Alcotest.int "32 MiB installed" (32 * 1024 * 1024)
    (Phys_mem.size (Bi_kernel.Kernel.machine k).Machine.mem);
  let mb = float_of_int ((after - before) * (Sys.word_size / 8)) /. 1048576. in
  if mb >= 4.0 then Alcotest.failf "Kernel.create () keeps %.1f MB live" mb;
  ignore (Sys.opaque_identity k)

(* ------------------------------------------------------------------ *)
(* Frame_alloc *)

let mk_alloc () =
  let m = Phys_mem.create ~size:(64 * 4096) in
  (m, Frame_alloc.create ~mem:m ~base:4096L ~frames:32)

let test_alloc_basic () =
  let _, a = mk_alloc () in
  let f1 = Frame_alloc.alloc a in
  let f2 = Frame_alloc.alloc a in
  check Alcotest.bool "distinct" true (f1 <> f2);
  check Alcotest.bool "aligned" true (Addr.is_aligned f1 Addr.page_size);
  check Alcotest.int "count" 30 (Frame_alloc.free_count a);
  Frame_alloc.free a f1;
  check Alcotest.int "freed" 31 (Frame_alloc.free_count a)

let test_alloc_exhaustion () =
  let _, a = mk_alloc () in
  for _ = 1 to 32 do
    ignore (Frame_alloc.alloc a)
  done;
  match Frame_alloc.alloc a with
  | exception Frame_alloc.Out_of_frames -> ()
  | _ -> Alcotest.fail "expected exhaustion"

let test_alloc_double_free () =
  let _, a = mk_alloc () in
  let f = Frame_alloc.alloc a in
  Frame_alloc.free a f;
  match Frame_alloc.free a f with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double free must fail"

let test_alloc_zeroed () =
  let m, a = mk_alloc () in
  let f = Frame_alloc.alloc a in
  Phys_mem.write_u64 m f 99L;
  Frame_alloc.free a f;
  let f2 = Frame_alloc.alloc_zeroed a in
  check Alcotest.int64 "zeroed frame" 0L (Phys_mem.read_u64 m f2)

let test_alloc_contiguous () =
  let _, a = mk_alloc () in
  let f = Frame_alloc.alloc_contiguous a 4 in
  check Alcotest.bool "allocated run" true
    (Frame_alloc.is_allocated a f
    && Frame_alloc.is_allocated a (Int64.add f (Int64.mul 3L 4096L)));
  check Alcotest.int "four used" 28 (Frame_alloc.free_count a)

let prop_alloc_unique =
  qtest "allocations never overlap" 50
    QCheck2.Gen.(int_range 1 32)
    (fun n ->
      let _, a = mk_alloc () in
      let fs = List.init n (fun _ -> Frame_alloc.alloc a) in
      List.length (List.sort_uniq compare fs) = n)

(* ------------------------------------------------------------------ *)
(* Pte corner cases beyond the VC suite *)

let test_pte_encode_absent_zero () =
  check Alcotest.int64 "absent is zero" 0L (Pte.encode Pte.Absent)

let test_pte_nx_bit () =
  let e = Pte.Leaf { frame = 0x1000L; perm = Pte.user_rx; huge = false } in
  let bits = Pte.encode e in
  check Alcotest.bool "NX clear for executable" true
    (Int64.logand bits (Int64.shift_left 1L 63) = 0L)

let test_pte_frame_masked () =
  let e = Pte.Leaf { frame = 0x1FFFL; perm = Pte.ro; huge = false } in
  match Pte.decode ~level:1 (Pte.encode e) with
  | Pte.Leaf { frame; _ } ->
      check Alcotest.int64 "frame truncated" 0x1000L frame
  | Pte.Absent | Pte.Table _ -> Alcotest.fail "leaf expected"

let test_pte_l4_never_leaf () =
  let e = Pte.Leaf { frame = 0x1000L; perm = Pte.rw; huge = true } in
  match Pte.decode ~level:4 (Pte.encode e) with
  | Pte.Table _ -> ()
  | Pte.Leaf _ -> Alcotest.fail "L4 entries are never leaves"
  | Pte.Absent -> Alcotest.fail "present bit lost"

(* ------------------------------------------------------------------ *)
(* MMU over hand-built page tables *)

let build_mapping ~mem ~leaf_level ~perm ~frame va =
  let root = 0x1000L in
  let t3 = 0x2000L and t2 = 0x3000L and t1 = 0x4000L in
  let entry table idx v =
    Phys_mem.write_u64 mem
      (Int64.add table (Int64.of_int (8 * idx)))
      (Pte.encode v)
  in
  entry root (Addr.l4_index va) (Pte.Table t3);
  (match leaf_level with
  | 3 -> entry t3 (Addr.l3_index va) (Pte.Leaf { frame; perm; huge = true })
  | 2 ->
      entry t3 (Addr.l3_index va) (Pte.Table t2);
      entry t2 (Addr.l2_index va) (Pte.Leaf { frame; perm; huge = true })
  | _ ->
      entry t3 (Addr.l3_index va) (Pte.Table t2);
      entry t2 (Addr.l2_index va) (Pte.Table t1);
      entry t1 (Addr.l1_index va) (Pte.Leaf { frame; perm; huge = false }));
  root

let test_mmu_walk_4k () =
  let mem = Phys_mem.create ~size:(64 * 4096) in
  let va = Addr.of_indices ~l4:0 ~l3:1 ~l2:2 ~l1:3 ~offset:0x123L in
  let cr3 = build_mapping ~mem ~leaf_level:1 ~perm:Pte.user_rw ~frame:0x7000L va in
  match Mmu.walk mem ~cr3 va with
  | Ok tr ->
      check Alcotest.int64 "pa" 0x7123L tr.Mmu.pa;
      check Alcotest.int64 "4k page" Addr.page_size tr.Mmu.page_size;
      check Alcotest.int "walk depth" 4 tr.Mmu.levels_walked
  | Error f -> Alcotest.failf "walk failed: %a" Mmu.pp_fault f

let test_mmu_walk_2m_offset () =
  let mem = Phys_mem.create ~size:(64 * 4096) in
  let base = Addr.of_indices ~l4:0 ~l3:1 ~l2:2 ~l1:0 ~offset:0L in
  let cr3 =
    build_mapping ~mem ~leaf_level:2 ~perm:Pte.user_rw
      ~frame:Addr.large_page_size base
  in
  let va = Int64.add base 0x54321L in
  match Mmu.walk mem ~cr3 va with
  | Ok tr ->
      check Alcotest.int64 "pa keeps 2M offset"
        (Int64.add Addr.large_page_size 0x54321L)
        tr.Mmu.pa;
      check Alcotest.int64 "2m page" Addr.large_page_size tr.Mmu.page_size;
      check Alcotest.int "3-level walk" 3 tr.Mmu.levels_walked
  | Error f -> Alcotest.failf "walk failed: %a" Mmu.pp_fault f

let test_mmu_walk_1g_offset () =
  let mem = Phys_mem.create ~size:(64 * 4096) in
  let base = Addr.of_indices ~l4:0 ~l3:1 ~l2:0 ~l1:0 ~offset:0L in
  let cr3 =
    build_mapping ~mem ~leaf_level:3 ~perm:Pte.rw ~frame:Addr.huge_page_size
      base
  in
  let va = Int64.add base 0xABCDEFL in
  match Mmu.walk mem ~cr3 va with
  | Ok tr ->
      check Alcotest.int64 "pa keeps 1G offset"
        (Int64.add Addr.huge_page_size 0xABCDEFL)
        tr.Mmu.pa;
      check Alcotest.int "2-level walk" 2 tr.Mmu.levels_walked
  | Error f -> Alcotest.failf "walk failed: %a" Mmu.pp_fault f

let test_mmu_fault_levels () =
  let mem = Phys_mem.create ~size:(64 * 4096) in
  let va = Addr.of_indices ~l4:0 ~l3:1 ~l2:2 ~l1:3 ~offset:0L in
  let cr3 = build_mapping ~mem ~leaf_level:1 ~perm:Pte.user_rw ~frame:0x7000L va in
  let other = Addr.of_indices ~l4:5 ~l3:0 ~l2:0 ~l1:0 ~offset:0L in
  (match Mmu.walk mem ~cr3 other with
  | Error (Mmu.Not_present { level = 4 }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected L4 fault");
  let sibling = Addr.of_indices ~l4:0 ~l3:1 ~l2:2 ~l1:9 ~offset:0L in
  match Mmu.walk mem ~cr3 sibling with
  | Error (Mmu.Not_present { level = 1 }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected L1 fault"

let test_mmu_non_canonical () =
  let mem = Phys_mem.create ~size:(64 * 4096) in
  match Mmu.walk mem ~cr3:0x1000L 0x1_0000_0000_0000L with
  | Error Mmu.Non_canonical -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected non-canonical fault"

let test_mmu_write_protection () =
  let mem = Phys_mem.create ~size:(64 * 4096) in
  let va = Addr.of_indices ~l4:0 ~l3:1 ~l2:2 ~l1:3 ~offset:0L in
  let cr3 = build_mapping ~mem ~leaf_level:1 ~perm:Pte.ro ~frame:0x7000L va in
  (match Mmu.translate mem ~cr3 Mmu.Read va with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "read must pass: %a" Mmu.pp_fault f);
  match Mmu.translate mem ~cr3 Mmu.Write va with
  | Error (Mmu.Protection _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "write must be denied"

let test_mmu_load_store () =
  let mem = Phys_mem.create ~size:(64 * 4096) in
  let va = Addr.of_indices ~l4:0 ~l3:1 ~l2:2 ~l1:3 ~offset:0x40L in
  let cr3 = build_mapping ~mem ~leaf_level:1 ~perm:Pte.user_rw ~frame:0x7000L va in
  (match Mmu.store mem ~cr3 va 0xFEEDL with
  | Ok () -> ()
  | Error f -> Alcotest.failf "store: %a" Mmu.pp_fault f);
  match Mmu.load mem ~cr3 va with
  | Ok v -> check Alcotest.int64 "load sees store" 0xFEEDL v
  | Error f -> Alcotest.failf "load: %a" Mmu.pp_fault f

(* ------------------------------------------------------------------ *)
(* TLB *)

let test_tlb_hit_miss_counters () =
  let tlb = Tlb.create ~capacity:4 in
  let e = { Tlb.frame = 0x1000L; perm = Pte.user_rw } in
  check Alcotest.bool "miss first" true (Tlb.lookup tlb 0x5000L = None);
  Tlb.insert tlb 0x5000L e;
  check Alcotest.bool "hit second" true (Tlb.lookup tlb 0x5000L <> None);
  check Alcotest.bool "same page different offset hits" true
    (Tlb.lookup tlb 0x5FFFL <> None);
  check Alcotest.int "hits" 2 (Tlb.hits tlb);
  check Alcotest.int "misses" 1 (Tlb.misses tlb)

let test_tlb_eviction_fifo () =
  let tlb = Tlb.create ~capacity:2 in
  let e = { Tlb.frame = 0x1000L; perm = Pte.user_rw } in
  Tlb.insert tlb 0x1000L e;
  Tlb.insert tlb 0x2000L e;
  Tlb.insert tlb 0x3000L e;
  check Alcotest.bool "oldest evicted" true (Tlb.lookup tlb 0x1000L = None);
  check Alcotest.bool "newest kept" true (Tlb.lookup tlb 0x3000L <> None);
  check Alcotest.int "capacity respected" 2 (Tlb.entry_count tlb)

let test_tlb_reinsert_bounded () =
  (* Regression: insert used to push the key onto the FIFO queue even
     when the page was already cached, so a hot page grew the queue
     without bound and occupied several eviction slots. *)
  let tlb = Tlb.create ~capacity:4 in
  let e frame = { Tlb.frame; perm = Pte.user_rw } in
  for i = 1 to 100 do
    Tlb.insert tlb 0x5000L (e (Int64.of_int (i * 0x1000)))
  done;
  check Alcotest.bool "queue bounded by capacity" true
    (Tlb.queue_length tlb <= 4);
  check Alcotest.int "still a single entry" 1 (Tlb.entry_count tlb);
  (* Re-insertion refreshes the translation in place. *)
  (match Tlb.lookup tlb 0x5000L with
  | Some { Tlb.frame; _ } ->
      check Alcotest.int64 "latest frame wins" 0x64000L frame
  | None -> Alcotest.fail "hot page must stay cached");
  (* The hot page holds exactly one FIFO slot: three more distinct pages
     fit alongside it without evicting it. *)
  Tlb.insert tlb 0x1000L (e 0xA000L);
  Tlb.insert tlb 0x2000L (e 0xB000L);
  Tlb.insert tlb 0x3000L (e 0xC000L);
  check Alcotest.bool "hot page survives fills up to capacity" true
    (Tlb.lookup tlb 0x5000L <> None);
  check Alcotest.int "at capacity" 4 (Tlb.entry_count tlb)

let test_tlb_invlpg_reinsert_bounded () =
  (* Regression: invlpg removed the entry but left its key in the FIFO
     queue, so an invlpg + re-insert cycle on the same page grew the
     queue without bound. *)
  let tlb = Tlb.create ~capacity:4 in
  let e = { Tlb.frame = 0x1000L; perm = Pte.user_rw } in
  for _ = 1 to 100 do
    Tlb.insert tlb 0x5000L e;
    Tlb.invlpg tlb 0x5000L
  done;
  check Alcotest.bool "queue stays O(capacity)" true
    (Tlb.queue_length tlb <= (2 * 4) + 1);
  check Alcotest.int "no live entries" 0 (Tlb.entry_count tlb);
  (* Compaction must not break normal operation afterwards. *)
  Tlb.insert tlb 0x1000L e;
  Tlb.insert tlb 0x2000L e;
  check Alcotest.bool "inserts still hit" true
    (Tlb.lookup tlb 0x1000L <> None && Tlb.lookup tlb 0x2000L <> None)

let test_tlb_invlpg_vs_eviction () =
  (* Eviction is capacity-driven FIFO; invlpg is targeted.  A stale
     queue slot left by invlpg must neither count against capacity nor
     get a live entry evicted early. *)
  let tlb = Tlb.create ~capacity:2 in
  let e = { Tlb.frame = 0x1000L; perm = Pte.user_rw } in
  Tlb.insert tlb 0x1000L e;
  Tlb.insert tlb 0x2000L e;
  Tlb.invlpg tlb 0x1000L;
  (* The invalidated slot is free again: no eviction happens here. *)
  Tlb.insert tlb 0x3000L e;
  check Alcotest.bool "survivor untouched" true (Tlb.lookup tlb 0x2000L <> None);
  check Alcotest.bool "new entry cached" true (Tlb.lookup tlb 0x3000L <> None);
  (* At capacity again: eviction must skip the stale 0x1000 queue slot
     and evict the oldest *live* entry, 0x2000. *)
  Tlb.insert tlb 0x4000L e;
  check Alcotest.bool "oldest live evicted" true (Tlb.lookup tlb 0x2000L = None);
  check Alcotest.bool "others kept" true
    (Tlb.lookup tlb 0x3000L <> None && Tlb.lookup tlb 0x4000L <> None);
  check Alcotest.int "at capacity" 2 (Tlb.entry_count tlb)

let test_tlb_reinserted_page_is_newest () =
  (* Regression: invlpg left the page's old FIFO slot in the queue, and a
     re-inserted page was evicted through that slot, before older
     entries. *)
  let tlb = Tlb.create ~capacity:2 in
  let e = { Tlb.frame = 0x1000L; perm = Pte.user_rw } in
  Tlb.insert tlb 0xA000L e;
  Tlb.insert tlb 0xB000L e;
  Tlb.invlpg tlb 0xA000L;
  Tlb.insert tlb 0xA000L e;
  Tlb.insert tlb 0xC000L e;
  check Alcotest.bool "oldest live entry evicted" true
    (Tlb.lookup tlb 0xB000L = None);
  check Alcotest.bool "re-inserted page kept" true
    (Tlb.lookup tlb 0xA000L <> None);
  check Alcotest.bool "newest kept" true (Tlb.lookup tlb 0xC000L <> None)

let test_tlb_invlpg_and_flush () =
  let tlb = Tlb.create ~capacity:8 in
  let e = { Tlb.frame = 0x1000L; perm = Pte.user_rw } in
  Tlb.insert tlb 0x1000L e;
  Tlb.insert tlb 0x2000L e;
  Tlb.invlpg tlb 0x1234L;
  check Alcotest.bool "invlpg removes page" true (Tlb.lookup tlb 0x1000L = None);
  check Alcotest.bool "other survives" true (Tlb.lookup tlb 0x2000L <> None);
  Tlb.flush tlb;
  check Alcotest.int "flush empties" 0 (Tlb.entry_count tlb)

(* ------------------------------------------------------------------ *)
(* Paging-structure cache *)

let pwc_entry table = { Pwc.table; perm = Pte.user_rw }

let test_pwc_deepest_first () =
  let pwc = Pwc.create ~capacity:8 in
  let va = Addr.of_indices ~l4:0 ~l3:1 ~l2:2 ~l1:3 ~offset:0L in
  Pwc.insert pwc ~level:3 va (pwc_entry 0x2000L);
  Pwc.insert pwc ~level:1 va (pwc_entry 0x4000L);
  (match Pwc.lookup pwc va with
  | Some (1, { Pwc.table = 0x4000L; _ }) -> ()
  | Some _ -> Alcotest.fail "must resume at the deepest cached level"
  | None -> Alcotest.fail "expected a PWC hit");
  (* A va in a different 2 MiB region of the same 1 GiB region misses at
     level 1 but still resumes at the shallower level-3 entry. *)
  let va' = Addr.of_indices ~l4:0 ~l3:1 ~l2:7 ~l1:0 ~offset:0L in
  (match Pwc.lookup pwc va' with
  | Some (3, { Pwc.table = 0x2000L; _ }) -> ()
  | Some _ | None -> Alcotest.fail "expected a level-3 resume");
  check Alcotest.int "both lookups hit" 2 (Pwc.hits pwc);
  check Alcotest.int "no misses" 0 (Pwc.misses pwc);
  match Pwc.lookup pwc (Addr.of_indices ~l4:9 ~l3:0 ~l2:0 ~l1:0 ~offset:0L) with
  | None -> check Alcotest.int "miss counted" 1 (Pwc.misses pwc)
  | Some _ -> Alcotest.fail "unrelated prefix must miss"

let test_pwc_invlpg_and_flush () =
  let pwc = Pwc.create ~capacity:8 in
  let va = Addr.of_indices ~l4:0 ~l3:1 ~l2:2 ~l1:3 ~offset:0L in
  Pwc.insert pwc ~level:1 va (pwc_entry 0x4000L);
  Pwc.insert pwc ~level:2 va (pwc_entry 0x3000L);
  Pwc.insert pwc ~level:3 va (pwc_entry 0x2000L);
  check Alcotest.int "three levels cached" 3 (Pwc.entry_count pwc);
  Pwc.invlpg pwc (Int64.add va 0x123L);
  check Alcotest.int "invlpg drops every covering level" 0
    (Pwc.entry_count pwc);
  check Alcotest.bool "no hit after invlpg" true (Pwc.lookup pwc va = None);
  Pwc.insert pwc ~level:1 va (pwc_entry 0x4000L);
  Pwc.flush pwc;
  check Alcotest.int "flush empties" 0 (Pwc.entry_count pwc)

let test_pwc_queue_bounded () =
  let pwc = Pwc.create ~capacity:4 in
  let va = Addr.of_indices ~l4:0 ~l3:1 ~l2:2 ~l1:3 ~offset:0L in
  for _ = 1 to 100 do
    Pwc.insert pwc ~level:1 va (pwc_entry 0x4000L);
    Pwc.invlpg pwc va
  done;
  check Alcotest.bool "queue stays O(capacity)" true
    (Pwc.queue_length pwc <= (2 * 4) + 1);
  check Alcotest.int "empty after last invlpg" 0 (Pwc.entry_count pwc)

let test_pwc_capacity_eviction () =
  let pwc = Pwc.create ~capacity:2 in
  (* Distinct 2 MiB regions give distinct level-1 (PDE cache) keys. *)
  let va_of l2 = Addr.of_indices ~l4:0 ~l3:0 ~l2 ~l1:0 ~offset:0L in
  Pwc.insert pwc ~level:1 (va_of 1) (pwc_entry 0x2000L);
  Pwc.insert pwc ~level:1 (va_of 2) (pwc_entry 0x3000L);
  Pwc.insert pwc ~level:1 (va_of 3) (pwc_entry 0x4000L);
  check Alcotest.int "capacity respected" 2 (Pwc.entry_count pwc);
  check Alcotest.bool "oldest evicted" true (Pwc.lookup pwc (va_of 1) = None);
  check Alcotest.bool "newest kept" true (Pwc.lookup pwc (va_of 3) <> None)

let test_pwc_reinserted_prefix_is_newest () =
  let pwc = Pwc.create ~capacity:2 in
  let va_of l2 = Addr.of_indices ~l4:0 ~l3:0 ~l2 ~l1:0 ~offset:0L in
  Pwc.insert pwc ~level:1 (va_of 1) (pwc_entry 0x2000L);
  Pwc.insert pwc ~level:1 (va_of 2) (pwc_entry 0x3000L);
  Pwc.invlpg pwc (va_of 1);
  Pwc.insert pwc ~level:1 (va_of 1) (pwc_entry 0x2000L);
  Pwc.insert pwc ~level:1 (va_of 3) (pwc_entry 0x4000L);
  check Alcotest.bool "oldest live entry evicted" true
    (Pwc.lookup pwc (va_of 2) = None);
  check Alcotest.bool "re-inserted prefix kept" true
    (Pwc.lookup pwc (va_of 1) <> None);
  check Alcotest.bool "newest kept" true (Pwc.lookup pwc (va_of 3) <> None)

(* ------------------------------------------------------------------ *)
(* Mmu + caches *)

let test_mmu_tlb_hit_protection_level0 () =
  let mem = Phys_mem.create ~size:(64 * 4096) in
  let va = Addr.of_indices ~l4:0 ~l3:1 ~l2:2 ~l1:3 ~offset:0x20L in
  let cr3 = build_mapping ~mem ~leaf_level:1 ~perm:Pte.ro ~frame:0x7000L va in
  let tlb = Tlb.create ~capacity:8 in
  (* Prime the TLB with a permitted read. *)
  (match Mmu.translate ~tlb mem ~cr3 Mmu.Read va with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "read must pass: %a" Mmu.pp_fault f);
  (* A denied write served from the TLB reports level 0, exactly like
     the walked path: the access check happens after translation. *)
  (match Mmu.translate ~tlb mem ~cr3 Mmu.Write va with
  | Error (Mmu.Protection { level = 0; access = Mmu.Write }) -> ()
  | Ok _ -> Alcotest.fail "write must be denied"
  | Error f -> Alcotest.failf "expected level-0 protection: %a" Mmu.pp_fault f);
  check Alcotest.int "fault came from a TLB hit" 1 (Tlb.hits tlb);
  match Mmu.translate mem ~cr3 Mmu.Write va with
  | Error (Mmu.Protection { level = 0; access = Mmu.Write }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "walked path must agree on level 0"

let test_mmu_pwc_resume () =
  let mem = Phys_mem.create ~size:(64 * 4096) in
  let va = Addr.of_indices ~l4:0 ~l3:1 ~l2:2 ~l1:3 ~offset:0x40L in
  let cr3 = build_mapping ~mem ~leaf_level:1 ~perm:Pte.user_rw ~frame:0x7000L va in
  let pwc = Pwc.create ~capacity:8 in
  (match Mmu.translate ~pwc mem ~cr3 Mmu.Read va with
  | Ok tr -> check Alcotest.int "cold translation walks 4 levels" 4
               tr.Mmu.levels_walked
  | Error f -> Alcotest.failf "translate: %a" Mmu.pp_fault f);
  (match Mmu.translate ~pwc mem ~cr3 Mmu.Read va with
  | Ok tr ->
      check Alcotest.int "PWC resume reads only the L1 table" 1
        tr.Mmu.levels_walked;
      check Alcotest.int64 "same pa" 0x7040L tr.Mmu.pa
  | Error f -> Alcotest.failf "translate: %a" Mmu.pp_fault f);
  (* After invlpg the cold walk is back. *)
  Pwc.invlpg pwc va;
  match Mmu.translate ~pwc mem ~cr3 Mmu.Read va with
  | Ok tr -> check Alcotest.int "invlpg forgets walk state" 4 tr.Mmu.levels_walked
  | Error f -> Alcotest.failf "translate: %a" Mmu.pp_fault f

(* ------------------------------------------------------------------ *)
(* Devices *)

let test_timer_ticks () =
  let t = Device.Timer.create () in
  check Alcotest.int64 "starts at zero" 0L (Device.Timer.now t);
  for _ = 1 to 3 do
    Device.Timer.tick t
  done;
  check Alcotest.int64 "one per tick" 3L (Device.Timer.now t)

let test_serial_output () =
  let s = Device.Serial.create () in
  Device.Serial.write_string s "hello ";
  Device.Serial.write_char s 'w';
  check Alcotest.string "accumulates" "hello w" (Device.Serial.output s);
  Device.Serial.clear s;
  check Alcotest.string "clears" "" (Device.Serial.output s)

let test_serial_keeps_newest_bytes () =
  let s = Device.Serial.create () in
  let line i = Printf.sprintf "line %05d\n" i in
  let lines = List.init ((Device.Serial.capacity / 11) + 100) line in
  List.iter (Device.Serial.write_string s) lines;
  let all = String.concat "" lines in
  let n = String.length all and cap = Device.Serial.capacity in
  check Alcotest.bool "wrote past the bound" true (n > cap);
  check Alcotest.string "exactly the newest bytes"
    (String.sub all (n - cap) cap)
    (Device.Serial.output s);
  Device.Serial.write_char s '!';
  check Alcotest.string "one more byte drops the oldest"
    (String.sub all (n - cap + 1) (cap - 1) ^ "!")
    (Device.Serial.output s)

let sector c = Bytes.make Device.Disk.sector_size c

let test_disk_rw_and_flush () =
  let d = Device.Disk.create ~sectors:16 () in
  Device.Disk.write_sector d 3 (sector 'a');
  check Alcotest.bool "read sees unflushed write" true
    (Device.Disk.read_sector d 3 = sector 'a');
  Device.Disk.flush d;
  check Alcotest.bool "read after flush" true
    (Device.Disk.read_sector d 3 = sector 'a')

let test_disk_crash_semantics () =
  let d = Device.Disk.create ~sectors:16 () in
  Device.Disk.write_sector d 0 (sector 'x');
  Device.Disk.flush d;
  Device.Disk.write_sector d 1 (sector 'y');
  Device.Disk.write_sector d 2 (sector 'z');
  let c = Device.Disk.crash_with d ~keep_unflushed:1 in
  check Alcotest.bool "durable survives" true
    (Device.Disk.read_sector c 0 = sector 'x');
  check Alcotest.bool "first unflushed kept" true
    (Device.Disk.read_sector c 1 = sector 'y');
  check Alcotest.bool "second unflushed lost" true
    (Device.Disk.read_sector c 2 = sector '\000');
  let c0 = Device.Disk.crash_with d ~keep_unflushed:0 in
  check Alcotest.bool "zero keeps only durable" true
    (Device.Disk.read_sector c0 1 = sector '\000')

let test_disk_write_wins_order () =
  let d = Device.Disk.create ~sectors:4 () in
  Device.Disk.write_sector d 0 (sector 'a');
  Device.Disk.write_sector d 0 (sector 'b');
  check Alcotest.bool "newest unflushed wins" true
    (Device.Disk.read_sector d 0 = sector 'b');
  Device.Disk.flush d;
  check Alcotest.bool "newest durable after flush" true
    (Device.Disk.read_sector d 0 = sector 'b')

(* Crash copies share sector buffers with the disk, which is sound only
   while no buffer a caller can reach is stored: scribbling on a written
   buffer, or on one returned by a read, must change neither the disk nor
   any crash copy, before or after a flush. *)
let test_disk_buffers_not_aliased () =
  let module D = Device.Disk in
  let d = D.create ~sectors:4 () in
  let w = sector 'a' in
  D.write_sector d 1 w;
  Bytes.fill w 0 (Bytes.length w) 'X';
  let early = D.crash_with d ~keep_unflushed:max_int in
  let seeded = D.crash ~seed:0 (D.crash_with d ~keep_unflushed:max_int) in
  Bytes.fill (D.read_sector d 1) 0 8 'Y';
  D.flush d;
  Bytes.fill (D.read_sector d 1) 0 8 'Z';
  let late = D.crash d in
  Bytes.fill (D.read_sector late 1) 0 8 'Q';
  Bytes.fill (D.read_sector early 1) 0 8 'Q';
  List.iter
    (fun (name, disk) ->
      check Alcotest.bool name true (D.read_sector disk 1 = sector 'a');
      check Alcotest.string (name ^ " contents")
        (String.make D.sector_size 'a')
        (D.contents disk).(1))
    [ ("disk", d); ("crash_with before flush", early);
      ("crash of a crash copy", seeded); ("crash after flush", late) ]

let test_disk_bad_args () =
  let d = Device.Disk.create ~sectors:4 () in
  (match Device.Disk.read_sector d 7 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sector range");
  match Device.Disk.write_sector d 0 (Bytes.make 5 'x') with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "buffer size"

let test_nic_delivery_and_loss () =
  let a = Device.Nic.create ~mac:"\x02\x00\x00\x00\x00\x01" () in
  let b = Device.Nic.create ~mac:"\x02\x00\x00\x00\x00\x02" () in
  Device.Nic.connect a b;
  Device.Nic.transmit a (Bytes.of_string "one");
  Device.Nic.transmit a (Bytes.of_string "two");
  check Alcotest.int "both delivered" 2 (Device.Nic.deliver a);
  check Alcotest.int "pending rx" 2 (Device.Nic.rx_pending b);
  check Alcotest.string "fifo order" "one"
    (Bytes.to_string (Option.get (Device.Nic.receive b)));
  Device.Nic.drop_next_tx a;
  Device.Nic.transmit a (Bytes.of_string "lost");
  Device.Nic.transmit a (Bytes.of_string "kept");
  ignore (Device.Nic.deliver a);
  check Alcotest.string "loss drops exactly one" "two"
    (Bytes.to_string (Option.get (Device.Nic.receive b)));
  check Alcotest.string "subsequent kept" "kept"
    (Bytes.to_string (Option.get (Device.Nic.receive b)))

let test_nic_mtu () =
  let a = Device.Nic.create ~mac:"\x02\x00\x00\x00\x00\x01" () in
  match Device.Nic.transmit a (Bytes.make 2000 'x') with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "MTU must be enforced"

(* ------------------------------------------------------------------ *)
(* Cost model *)

let test_cost_model_monotone () =
  let m = Cost_model.default in
  check Alcotest.bool "contention grows" true
    (Cost_model.cas_acquire_cost m ~contenders:8
    > Cost_model.cas_acquire_cost m ~contenders:2);
  check Alcotest.bool "shootdown grows" true
    (Cost_model.shootdown_cost m ~cores:28
    > Cost_model.shootdown_cost m ~cores:2)

let test_cost_model_units () =
  let m = Cost_model.default in
  check (Alcotest.float 1e-9) "2500 cycles at 2.5GHz = 1us" 1.0
    (Cost_model.cycles_to_us m 2500)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bi_hw"
    [
      ( "addr",
        [
          Alcotest.test_case "constants" `Quick test_addr_constants;
          Alcotest.test_case "canonical" `Quick test_addr_canonical;
          Alcotest.test_case "known indices" `Quick test_addr_indices_known;
          prop_addr_roundtrip;
          prop_align_down;
          prop_vpage;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "read/write" `Quick test_phys_mem_rw;
          Alcotest.test_case "little endian" `Quick test_phys_mem_little_endian;
          Alcotest.test_case "bounds" `Quick test_phys_mem_bounds;
          Alcotest.test_case "bytes" `Quick test_phys_mem_bytes;
          Alcotest.test_case "huge addresses" `Quick test_phys_mem_huge_address;
          Alcotest.test_case "zero frame" `Quick test_phys_mem_zero_frame;
          Alcotest.test_case "counters" `Quick test_phys_mem_counters;
          Alcotest.test_case "first touch agrees with a flat array" `Quick
            test_phys_mem_vs_flat;
          Alcotest.test_case "Kernel.create heap under 4 MB" `Quick
            test_kernel_create_heap;
        ] );
      ( "frame_alloc",
        [
          Alcotest.test_case "basic" `Quick test_alloc_basic;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
          Alcotest.test_case "double free" `Quick test_alloc_double_free;
          Alcotest.test_case "zeroed" `Quick test_alloc_zeroed;
          Alcotest.test_case "contiguous" `Quick test_alloc_contiguous;
          prop_alloc_unique;
        ] );
      ( "pte",
        [
          Alcotest.test_case "absent is zero" `Quick test_pte_encode_absent_zero;
          Alcotest.test_case "nx bit" `Quick test_pte_nx_bit;
          Alcotest.test_case "frame masked" `Quick test_pte_frame_masked;
          Alcotest.test_case "L4 never leaf" `Quick test_pte_l4_never_leaf;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "4k walk" `Quick test_mmu_walk_4k;
          Alcotest.test_case "2m walk offset" `Quick test_mmu_walk_2m_offset;
          Alcotest.test_case "1g walk offset" `Quick test_mmu_walk_1g_offset;
          Alcotest.test_case "fault levels" `Quick test_mmu_fault_levels;
          Alcotest.test_case "non-canonical" `Quick test_mmu_non_canonical;
          Alcotest.test_case "write protection" `Quick test_mmu_write_protection;
          Alcotest.test_case "load/store" `Quick test_mmu_load_store;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss counters" `Quick test_tlb_hit_miss_counters;
          Alcotest.test_case "fifo eviction" `Quick test_tlb_eviction_fifo;
          Alcotest.test_case "re-insertion stays bounded" `Quick
            test_tlb_reinsert_bounded;
          Alcotest.test_case "invlpg and flush" `Quick test_tlb_invlpg_and_flush;
          Alcotest.test_case "invlpg/re-insert cycle stays bounded" `Quick
            test_tlb_invlpg_reinsert_bounded;
          Alcotest.test_case "invlpg vs eviction" `Quick
            test_tlb_invlpg_vs_eviction;
          Alcotest.test_case "re-inserted page is the newest" `Quick
            test_tlb_reinserted_page_is_newest;
        ] );
      ( "pwc",
        [
          Alcotest.test_case "deepest-first lookup" `Quick test_pwc_deepest_first;
          Alcotest.test_case "invlpg and flush" `Quick test_pwc_invlpg_and_flush;
          Alcotest.test_case "invlpg/re-insert cycle stays bounded" `Quick
            test_pwc_queue_bounded;
          Alcotest.test_case "capacity eviction" `Quick
            test_pwc_capacity_eviction;
          Alcotest.test_case "re-inserted prefix is the newest" `Quick
            test_pwc_reinserted_prefix_is_newest;
          Alcotest.test_case "mmu tlb-hit protection level 0" `Quick
            test_mmu_tlb_hit_protection_level0;
          Alcotest.test_case "mmu pwc resume" `Quick test_mmu_pwc_resume;
        ] );
      ( "devices",
        [
          Alcotest.test_case "timer ticks" `Quick test_timer_ticks;
          Alcotest.test_case "serial" `Quick test_serial_output;
          Alcotest.test_case "serial keeps the newest bytes" `Quick
            test_serial_keeps_newest_bytes;
          Alcotest.test_case "disk rw/flush" `Quick test_disk_rw_and_flush;
          Alcotest.test_case "disk crash" `Quick test_disk_crash_semantics;
          Alcotest.test_case "disk buffers not aliased" `Quick
            test_disk_buffers_not_aliased;
          Alcotest.test_case "disk write order" `Quick test_disk_write_wins_order;
          Alcotest.test_case "disk bad args" `Quick test_disk_bad_args;
          Alcotest.test_case "nic delivery/loss" `Quick test_nic_delivery_and_loss;
          Alcotest.test_case "nic mtu" `Quick test_nic_mtu;
        ] );
      ( "machine",
        [
          Alcotest.test_case "cost model monotone" `Quick test_cost_model_monotone;
          Alcotest.test_case "cost model units" `Quick test_cost_model_units;
        ] );
    ]
