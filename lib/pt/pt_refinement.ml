module Addr = Bi_hw.Addr
module Pte = Bi_hw.Pte
module Phys_mem = Bi_hw.Phys_mem
module Frame_alloc = Bi_hw.Frame_alloc
module Mmu = Bi_hw.Mmu
module Tlb = Bi_hw.Tlb
module Vc = Bi_core.Vc
module Gen = Bi_core.Gen
module Contract = Bi_core.Contract

let count = 220

(* ------------------------------------------------------------------ *)
(* Test environments                                                   *)

let small_mem_bytes = 2 * 1024 * 1024
let big_mem_bytes = 8 * 1024 * 1024
let reserved = 64 (* frames kept out of the allocator for data probes *)

let fresh_pt ?(bytes = small_mem_bytes) () =
  let mem = Phys_mem.create ~size:bytes in
  let page = Int64.to_int Addr.page_size in
  let frames =
    Frame_alloc.create ~mem
      ~base:(Int64.of_int (reserved * page))
      ~frames:((bytes / page) - reserved)
  in
  Page_table.create ~mem ~frames

let va_at ?(l4 = 0) ?(l3 = 0) ?(l2 = 0) ?(l1 = 0) ?(offset = 0L) () =
  Addr.of_indices ~l4 ~l3 ~l2 ~l1 ~offset

let non_canonical_va = Int64.shift_left 1L 48 (* bit 48 set, bit 47 clear *)

(* Per-size parameters: a base va aligned to the size, a well-aligned frame
   (frames need not lie in installed memory unless data is accessed), and a
   misalignment delta. *)
type size_case = {
  sname : string;
  size : int64;
  base : Addr.vaddr;
  base2 : Addr.vaddr; (* second, disjoint base *)
  frame0 : Addr.paddr;
  frame1 : Addr.paddr;
  inside : int64; (* nonzero offset that stays inside one page *)
}

let size_cases =
  [
    {
      sname = "4k";
      size = Addr.page_size;
      base = va_at ~l2:1 ~l1:2 ();
      base2 = va_at ~l2:1 ~l1:3 ();
      frame0 = 0x10_0000L;
      frame1 = 0x20_0000L;
      inside = 0x10L;
    };
    {
      sname = "2m";
      size = Addr.large_page_size;
      base = va_at ~l3:1 ~l2:2 ();
      base2 = va_at ~l3:1 ~l2:3 ();
      frame0 = 0x40_0000L;
      frame1 = 0x80_0000L;
      inside = Addr.page_size;
    };
    {
      sname = "1g";
      size = Addr.huge_page_size;
      base = va_at ~l4:1 ~l3:2 ();
      base2 = va_at ~l4:1 ~l3:3 ();
      frame0 = Addr.huge_page_size;
      frame1 = Int64.mul 2L Addr.huge_page_size;
      inside = Addr.large_page_size;
    };
  ]

let perm_cases =
  [
    ("rw", Pte.rw);
    ("urw", Pte.user_rw);
    ("urx", Pte.user_rx);
    ("ro", Pte.ro);
  ]

let mk_map ?(perm = Pte.user_rw) ~va ~frame ~size () =
  Pt_spec.Map { va; m = { Pt_spec.frame; perm; size } }

(* ------------------------------------------------------------------ *)
(* Refinement functor instance                                         *)

module Impl = struct
  type t = Page_table.t
  type op = Pt_spec.op
  type ret = Pt_spec.ret

  let step pt = function
    | Pt_spec.Map { va; m } -> (
        match
          Page_table.map pt ~va ~frame:m.Pt_spec.frame ~size:m.Pt_spec.size
            ~perm:m.Pt_spec.perm
        with
        | Ok () -> Pt_spec.Mapped
        | Error e -> Pt_spec.Error e)
    | Pt_spec.Unmap { va } -> (
        match Page_table.unmap pt ~va with
        | Ok frame -> Pt_spec.Unmapped frame
        | Error e -> Pt_spec.Error e)
    | Pt_spec.Resolve { va } -> (
        match Page_table.resolve pt ~va with
        | Ok (pa, perm) -> Pt_spec.Resolved (pa, perm)
        | Error e -> Pt_spec.Error e)
    | Pt_spec.Protect { va; perm } -> (
        match Page_table.protect pt ~va ~perm with
        | Ok () -> Pt_spec.Mapped
        | Error e -> Pt_spec.Error e)
end

module R = Bi_core.Refinement.Make (Pt_spec) (Impl)

let trace_vc ~id ~category ops =
  R.vc ~id ~category ~view:Page_table.view
    ~make_impl:(fun () -> fresh_pt ())
    ~init:Pt_spec.empty ops

(* ------------------------------------------------------------------ *)
(* Family A: PTE codec round-trip lemmas (31 VCs)                      *)

let sample_frames ~id ~align n =
  let g = Gen.of_string id in
  Gen.sample g n (fun g ->
      let raw = Int64.logand (Gen.bits g 52) Pte.frame_mask in
      Addr.align_down raw align)

let all_perms =
  (* The full 2^3 product of permission bits, unlike the four named
     combinations used by the refinement scenarios. *)
  List.concat_map
    (fun writable ->
      List.concat_map
        (fun user ->
          List.map
            (fun executable ->
              let name =
                Printf.sprintf "%c%c%c"
                  (if writable then 'w' else '-')
                  (if user then 'u' else '-')
                  (if executable then 'x' else '-')
              in
              (name, { Pte.writable; user; executable }))
            [ false; true ])
        [ false; true ])
    [ false; true ]

let pte_roundtrip_vcs () =
  let leaf_vc level (pname, perm) =
    let huge = level > 1 in
    let id = Printf.sprintf "pt/lemma/pte-roundtrip/l%d/%s" level pname in
    Vc.prop ~id ~category:"lemma/pte"
      (Vc.forall_list
         (sample_frames ~id ~align:Addr.page_size 64)
         (fun frame ->
           let e = Pte.Leaf { frame; perm; huge } in
           Pte.equal (Pte.decode ~level (Pte.encode e)) e))
  in
  let leaf_vcs =
    List.concat_map
      (fun level -> List.map (leaf_vc level) all_perms)
      [ 1; 2; 3 ]
  in
  let table_vc level =
    let id = Printf.sprintf "pt/lemma/pte-roundtrip/table-l%d" level in
    Vc.prop ~id ~category:"lemma/pte"
      (Vc.forall_list
         (sample_frames ~id ~align:Addr.page_size 64)
         (fun frame ->
           Pte.equal (Pte.decode ~level (Pte.encode (Pte.Table frame)))
             (Pte.Table frame)))
  in
  let absent_vc level =
    let id = Printf.sprintf "pt/lemma/pte-roundtrip/absent-l%d" level in
    Vc.prop ~id ~category:"lemma/pte" (fun () ->
        Pte.equal (Pte.decode ~level (Pte.encode Pte.Absent)) Pte.Absent)
  in
  (* Hardware quirk lemma: at L2/L3 a present entry without the PS bit is a
     table pointer, so a huge leaf must round-trip through the PS bit. *)
  let ps_required_vc =
    Vc.prop ~id:"pt/lemma/pte-roundtrip/ps-required"
      ~category:"lemma/pte" (fun () ->
        let e = Pte.Leaf { frame = 0x1000L; perm = Pte.rw; huge = false } in
        match Pte.decode ~level:2 (Pte.encode e) with
        | Pte.Table _ -> true
        | Pte.Absent | Pte.Leaf _ -> false)
  in
  leaf_vcs
  @ List.map table_vc [ 4; 3; 2 ]
  @ List.map absent_vc [ 3; 2; 1 ]
  @ [ ps_required_vc ]

(* ------------------------------------------------------------------ *)
(* Family B: address-arithmetic lemmas (12 VCs)                        *)

let addr_lemma_vcs () =
  let sampled_indices id p =
    Vc.forall_sampled ~id ~n:256
      (fun g ->
        ( Gen.int g 256 (* low half *),
          Gen.int g 512,
          Gen.int g 512,
          Gen.int g 512,
          Gen.bits g 12 ))
      p
  in
  let index_inverse name extract pick =
    let id = "pt/lemma/addr/index-inverse-" ^ name in
    Vc.prop ~id ~category:"lemma/addr"
      (sampled_indices id (fun (l4, l3, l2, l1, offset) ->
           let va = Addr.of_indices ~l4 ~l3 ~l2 ~l1 ~offset in
           extract va = pick (l4, l3, l2, l1)))
  in
  let offset_inverse name off_fn size =
    let id = "pt/lemma/addr/offset-inverse-" ^ name in
    Vc.prop ~id ~category:"lemma/addr"
      (sampled_indices id (fun (l4, l3, l2, l1, offset) ->
           let va = Addr.of_indices ~l4 ~l3 ~l2 ~l1 ~offset in
           off_fn va = Int64.rem (Int64.sub va (Addr.align_down va size)) size))
  in
  [
    index_inverse "l4" Addr.l4_index (fun (a, _, _, _) -> a);
    index_inverse "l3" Addr.l3_index (fun (_, a, _, _) -> a);
    index_inverse "l2" Addr.l2_index (fun (_, _, a, _) -> a);
    index_inverse "l1" Addr.l1_index (fun (_, _, _, a) -> a);
    offset_inverse "4k" Addr.offset_4k Addr.page_size;
    offset_inverse "2m" Addr.offset_2m Addr.large_page_size;
    offset_inverse "1g" Addr.offset_1g Addr.huge_page_size;
    Vc.prop ~id:"pt/lemma/addr/canonicalize-idempotent"
      ~category:"lemma/addr"
      (Vc.forall_sampled ~id:"canon-idem" ~n:256
         (fun g -> Gen.next64 g)
         (fun raw ->
           let c = Addr.canonicalize raw in
           Addr.canonicalize c = c && Addr.is_canonical c));
    Vc.prop ~id:"pt/lemma/addr/of-indices-canonical" ~category:"lemma/addr"
      (sampled_indices "of-indices-canonical"
         (fun (l4, l3, l2, l1, offset) ->
           Addr.is_canonical (Addr.of_indices ~l4 ~l3 ~l2 ~l1 ~offset)));
    Vc.prop ~id:"pt/lemma/addr/align-down-aligned" ~category:"lemma/addr"
      (Vc.forall_sampled ~id:"align-aligned" ~n:256
         (fun g -> Gen.bits g 47)
         (fun va ->
           Addr.is_aligned (Addr.align_down va Addr.page_size) Addr.page_size));
    Vc.prop ~id:"pt/lemma/addr/align-down-le" ~category:"lemma/addr"
      (Vc.forall_sampled ~id:"align-le" ~n:256
         (fun g -> Gen.bits g 47)
         (fun va ->
           let d = Addr.align_down va Addr.page_size in
           d <= va && Int64.sub va d < Addr.page_size));
    Vc.prop ~id:"pt/lemma/addr/vpage-4k-aligned" ~category:"lemma/addr"
      (Vc.forall_sampled ~id:"vpage-aligned" ~n:256
         (fun g -> Gen.bits g 47)
         (fun va -> Addr.is_aligned (Addr.vpage_4k va) Addr.page_size));
  ]

(* ------------------------------------------------------------------ *)
(* Family C: map refinement, per size x perm x scenario (84 VCs)       *)

let map_refinement_vcs () =
  let scenario sc (pname, perm) (c : size_case) =
    let id = Printf.sprintf "pt/map/%s/%s/%s" c.sname pname sc in
    let m frame = mk_map ~perm ~frame ~size:c.size in
    let ops =
      match sc with
      | "fresh" -> [ m c.frame0 ~va:c.base () ]
      | "duplicate" -> [ m c.frame0 ~va:c.base (); m c.frame1 ~va:c.base () ]
      | "unaligned-va" ->
          [ m c.frame0 ~va:(Int64.add c.base c.inside) () ]
      | "unaligned-frame" ->
          [
            Pt_spec.Map
              {
                va = c.base;
                m =
                  {
                    Pt_spec.frame = Int64.add c.frame0 c.inside;
                    perm;
                    size = c.size;
                  };
              };
          ]
      | "non-canonical" -> [ m c.frame0 ~va:non_canonical_va () ]
      | "second-disjoint" ->
          [ m c.frame0 ~va:c.base (); m c.frame1 ~va:c.base2 () ]
      | "refill" ->
          [
            m c.frame0 ~va:c.base ();
            Pt_spec.Unmap { va = c.base };
            m c.frame1 ~va:c.base ();
            Pt_spec.Resolve { va = c.base };
          ]
      | _ -> assert false
    in
    trace_vc ~id ~category:"refinement/map" ops
  in
  let scenarios =
    [
      "fresh";
      "duplicate";
      "unaligned-va";
      "unaligned-frame";
      "non-canonical";
      "second-disjoint";
      "refill";
    ]
  in
  List.concat_map
    (fun c ->
      List.concat_map
        (fun p -> List.map (fun sc -> scenario sc p c) scenarios)
        perm_cases)
    size_cases

(* ------------------------------------------------------------------ *)
(* Family D: cross-size overlap refinement (6 VCs)                     *)

let cross_size_vcs () =
  let pairs =
    [
      ("4k-in-2m", Addr.page_size, Addr.large_page_size, va_at ~l3:1 ());
      ("4k-in-1g", Addr.page_size, Addr.huge_page_size, va_at ~l4:1 ());
      ("2m-in-1g", Addr.large_page_size, Addr.huge_page_size, va_at ~l4:1 ());
    ]
  in
  List.concat_map
    (fun (name, small, big, base) ->
      let inside = Int64.add base (Int64.mul 3L small) in
      let m ~va ~size frame = mk_map ~va ~frame ~size () in
      [
        trace_vc
          ~id:(Printf.sprintf "pt/map/overlap/big-then-small/%s" name)
          ~category:"refinement/overlap"
          [ m ~va:base ~size:big 0L; m ~va:inside ~size:small 0x10_0000L ];
        trace_vc
          ~id:(Printf.sprintf "pt/map/overlap/small-then-big/%s" name)
          ~category:"refinement/overlap"
          [ m ~va:inside ~size:small 0x10_0000L; m ~va:base ~size:big 0L ];
      ])
    pairs

(* ------------------------------------------------------------------ *)
(* Family E: unmap refinement (18 VCs)                                 *)

let unmap_refinement_vcs () =
  let scenario sc (c : size_case) =
    let id = Printf.sprintf "pt/unmap/%s/%s" c.sname sc in
    let m frame = mk_map ~frame ~size:c.size in
    let ops =
      match sc with
      | "exact" -> [ m c.frame0 ~va:c.base (); Pt_spec.Unmap { va = c.base } ]
      | "not-mapped" -> [ Pt_spec.Unmap { va = c.base } ]
      | "inside-not-base" ->
          [
            m c.frame0 ~va:c.base ();
            Pt_spec.Unmap { va = Int64.add c.base c.inside };
          ]
      | "double" ->
          [
            m c.frame0 ~va:c.base ();
            Pt_spec.Unmap { va = c.base };
            Pt_spec.Unmap { va = c.base };
          ]
      | "remap" ->
          [
            m c.frame0 ~va:c.base ();
            Pt_spec.Unmap { va = c.base };
            m c.frame1 ~va:c.base ();
            Pt_spec.Resolve { va = c.base };
            Pt_spec.Unmap { va = c.base };
          ]
      | "non-canonical" -> [ Pt_spec.Unmap { va = non_canonical_va } ]
      | _ -> assert false
    in
    trace_vc ~id ~category:"refinement/unmap" ops
  in
  let scenarios =
    [ "exact"; "not-mapped"; "inside-not-base"; "double"; "remap";
      "non-canonical" ]
  in
  List.concat_map
    (fun c -> List.map (fun sc -> scenario sc c) scenarios)
    size_cases

(* ------------------------------------------------------------------ *)
(* Family F: table-frame reclamation (6 VCs)                           *)

let reclaim_vcs () =
  let vc id f = Vc.prop ~id ~category:"invariant/reclaim" f in
  let map_ok pt ~va ~size =
    (* 4 GiB is aligned to every supported page size. *)
    match
      Page_table.map pt ~va
        ~frame:(Int64.mul 4L Addr.huge_page_size)
        ~size ~perm:Pte.user_rw
    with
    | Ok () -> true
    | Error _ -> false
  in
  let unmap_ok pt ~va =
    match Page_table.unmap pt ~va with Ok _ -> true | Error _ -> false
  in
  [
    vc "pt/reclaim/map-4k-allocates-path" (fun () ->
        let pt = fresh_pt () in
        map_ok pt ~va:(va_at ()) ~size:Addr.page_size
        && Page_table.table_frames pt = 4);
    vc "pt/reclaim/unmap-4k-reclaims-path" (fun () ->
        let pt = fresh_pt () in
        map_ok pt ~va:(va_at ()) ~size:Addr.page_size
        && unmap_ok pt ~va:(va_at ())
        && Page_table.table_frames pt = 1);
    vc "pt/reclaim/shared-table-kept" (fun () ->
        let pt = fresh_pt () in
        map_ok pt ~va:(va_at ~l1:0 ()) ~size:Addr.page_size
        && map_ok pt ~va:(va_at ~l1:1 ()) ~size:Addr.page_size
        && unmap_ok pt ~va:(va_at ~l1:0 ())
        && Page_table.table_frames pt = 4);
    vc "pt/reclaim/map-2m-allocates-path" (fun () ->
        let pt = fresh_pt () in
        map_ok pt ~va:(va_at ()) ~size:Addr.large_page_size
        && Page_table.table_frames pt = 3);
    vc "pt/reclaim/map-1g-allocates-path" (fun () ->
        let pt = fresh_pt () in
        map_ok pt ~va:(va_at ()) ~size:Addr.huge_page_size
        && Page_table.table_frames pt = 2);
    vc "pt/reclaim/partial-reclaim" (fun () ->
        let pt = fresh_pt () in
        (* Two 4 KiB mappings under distinct L3 slots share only the L4
           root and one L3 table. *)
        map_ok pt ~va:(va_at ~l3:0 ()) ~size:Addr.page_size
        && map_ok pt ~va:(va_at ~l3:1 ()) ~size:Addr.page_size
        && Page_table.table_frames pt = 6
        && unmap_ok pt ~va:(va_at ~l3:0 ())
        && Page_table.table_frames pt = 4);
  ]

(* ------------------------------------------------------------------ *)
(* Family G: resolve refinement (12 VCs)                               *)

let resolve_refinement_vcs () =
  let scenario sc (c : size_case) =
    let id = Printf.sprintf "pt/resolve/%s/%s" c.sname sc in
    let m frame = mk_map ~frame ~size:c.size in
    let ops =
      match sc with
      | "hit-base" ->
          [ m c.frame0 ~va:c.base (); Pt_spec.Resolve { va = c.base } ]
      | "hit-middle" ->
          [
            m c.frame0 ~va:c.base ();
            Pt_spec.Resolve { va = Int64.add c.base (Int64.div c.size 2L) };
          ]
      | "miss" -> [ Pt_spec.Resolve { va = c.base } ]
      | "after-unmap" ->
          [
            m c.frame0 ~va:c.base ();
            Pt_spec.Unmap { va = c.base };
            Pt_spec.Resolve { va = c.base };
          ]
      | _ -> assert false
    in
    trace_vc ~id ~category:"refinement/resolve" ops
  in
  List.concat_map
    (fun c ->
      List.map
        (fun sc -> scenario sc c)
        [ "hit-base"; "hit-middle"; "miss"; "after-unmap" ])
    size_cases

(* ------------------------------------------------------------------ *)
(* Family H: agreement with the MMU hardware spec (12 VCs)             *)

let mmu_agreement_vcs () =
  let vc id f = Vc.prop ~id ~category:"hw/mmu" f in
  let with_mapping (c : size_case) perm k =
    let pt = fresh_pt () in
    match
      Page_table.map pt ~va:c.base ~frame:c.frame0 ~size:c.size ~perm
    with
    | Error _ -> false
    | Ok () -> k pt
  in
  List.concat_map
    (fun (c : size_case) ->
      [
        vc (Printf.sprintf "pt/mmu/translate-match/%s" c.sname) (fun () ->
            with_mapping c Pte.user_rw (fun pt ->
                let va = Int64.add c.base c.inside in
                match
                  ( Mmu.translate (Page_table.mem pt)
                      ~cr3:(Page_table.root pt) Mmu.Read va,
                    Page_table.resolve pt ~va )
                with
                | Ok tr, Ok (pa, _) ->
                    tr.Mmu.pa = pa && tr.Mmu.page_size = c.size
                | (Ok _ | Error _), _ -> false));
        vc (Printf.sprintf "pt/mmu/write-denied-ro/%s" c.sname) (fun () ->
            with_mapping c Pte.ro (fun pt ->
                match
                  Mmu.translate (Page_table.mem pt) ~cr3:(Page_table.root pt)
                    Mmu.Write c.base
                with
                | Error (Mmu.Protection _) -> true
                | Ok _ | Error _ -> false));
        vc (Printf.sprintf "pt/mmu/exec-denied-nx/%s" c.sname) (fun () ->
            with_mapping c Pte.rw (fun pt ->
                match
                  Mmu.translate (Page_table.mem pt) ~cr3:(Page_table.root pt)
                    Mmu.Execute c.base
                with
                | Error (Mmu.Protection _) -> true
                | Ok _ | Error _ -> false));
        vc (Printf.sprintf "pt/mmu/fault-unmapped/%s" c.sname) (fun () ->
            let pt = fresh_pt () in
            match
              Mmu.translate (Page_table.mem pt) ~cr3:(Page_table.root pt)
                Mmu.Read c.base
            with
            | Error (Mmu.Not_present _) -> true
            | Ok _ | Error _ -> false);
      ])
    size_cases

(* ------------------------------------------------------------------ *)
(* Family I: TLB semantics (6 VCs)                                     *)

let tlb_vcs () =
  let vc id f = Vc.prop ~id ~category:"hw/tlb" f in
  let setup () =
    let pt = fresh_pt () in
    let tlb = Tlb.create ~capacity:16 in
    let va = va_at ~l1:1 () in
    match
      Page_table.map pt ~va ~frame:0x10_0000L ~size:Addr.page_size
        ~perm:Pte.user_rw
    with
    | Ok () -> (pt, tlb, va)
    | Error _ -> failwith "tlb setup failed"
  in
  let translate ?tlb pt access va =
    Mmu.translate ?tlb (Page_table.mem pt) ~cr3:(Page_table.root pt) access va
  in
  [
    vc "pt/tlb/second-access-hits" (fun () ->
        let pt, tlb, va = setup () in
        match (translate ~tlb pt Mmu.Read va, translate ~tlb pt Mmu.Read va) with
        | Ok first, Ok second ->
            first.Mmu.levels_walked = 4 && second.Mmu.levels_walked = 0
        | (Ok _ | Error _), _ -> false);
    vc "pt/tlb/stale-after-unmap-without-invlpg" (fun () ->
        let pt, tlb, va = setup () in
        match translate ~tlb pt Mmu.Read va with
        | Error _ -> false
        | Ok _ -> (
            match Page_table.unmap pt ~va with
            | Error _ -> false
            | Ok _ -> (
                (* Hardware spec: without invlpg the stale entry serves. *)
                match translate ~tlb pt Mmu.Read va with
                | Ok tr -> tr.Mmu.levels_walked = 0
                | Error _ -> false)));
    vc "pt/tlb/invlpg-restores-fault" (fun () ->
        let pt, tlb, va = setup () in
        match translate ~tlb pt Mmu.Read va with
        | Error _ -> false
        | Ok _ -> (
            match Page_table.unmap pt ~va with
            | Error _ -> false
            | Ok _ -> (
                Tlb.invlpg tlb va;
                match translate ~tlb pt Mmu.Read va with
                | Error (Mmu.Not_present _) -> true
                | Ok _ | Error _ -> false)));
    vc "pt/tlb/flush-clears-everything" (fun () ->
        let pt, tlb, va = setup () in
        match translate ~tlb pt Mmu.Read va with
        | Error _ -> false
        | Ok _ ->
            Tlb.flush tlb;
            Tlb.entry_count tlb = 0);
    vc "pt/tlb/capacity-eviction" (fun () ->
        let tlb = Tlb.create ~capacity:2 in
        let e = { Tlb.frame = 0x1000L; perm = Pte.user_rw } in
        Tlb.insert tlb (va_at ~l1:0 ()) e;
        Tlb.insert tlb (va_at ~l1:1 ()) e;
        Tlb.insert tlb (va_at ~l1:2 ()) e;
        Tlb.entry_count tlb = 2
        && Tlb.lookup tlb (va_at ~l1:0 ()) = None);
    vc "pt/tlb/permissions-cached" (fun () ->
        let pt = fresh_pt () in
        let tlb = Tlb.create ~capacity:16 in
        let va = va_at ~l1:1 () in
        match
          Page_table.map pt ~va ~frame:0x10_0000L ~size:Addr.page_size
            ~perm:Pte.ro
        with
        | Error _ -> false
        | Ok () -> (
            match translate ~tlb pt Mmu.Read va with
            | Error _ -> false
            | Ok _ -> (
                (* The cached entry must still deny writes. *)
                match translate ~tlb pt Mmu.Write va with
                | Error (Mmu.Protection _) -> true
                | Ok _ | Error _ -> false)));
  ]

let translate_for_rw pt access va =
  Mmu.translate (Page_table.mem pt) ~cr3:(Page_table.root pt) access va

(* ------------------------------------------------------------------ *)
(* Family J: read/write semantics through translation (8 VCs)          *)

let rw_semantics_vcs () =
  let vc id f = Vc.prop ~id ~category:"hw/rw" f in
  let store pt va v =
    match Mmu.store (Page_table.mem pt) ~cr3:(Page_table.root pt) va v with
    | Ok () -> true
    | Error _ -> false
  in
  let load pt va =
    match Mmu.load (Page_table.mem pt) ~cr3:(Page_table.root pt) va with
    | Ok v -> Some v
    | Error _ -> None
  in
  (* Data frames: 4 KiB from low reserved region; bigger pages use frames
     whose probed offsets stay inside installed memory. *)
  let roundtrip sname size frame off =
    vc (Printf.sprintf "pt/rw/store-load-roundtrip/%s" sname) (fun () ->
        let pt = fresh_pt ~bytes:big_mem_bytes () in
        let va = Addr.align_down (va_at ~l4:2 ()) size in
        match Page_table.map pt ~va ~frame ~size ~perm:Pte.user_rw with
        | Error _ -> false
        | Ok () ->
            let probe = Int64.add va off in
            store pt probe 0xDEAD_BEEF_0BADCAFEL
            && load pt probe = Some 0xDEAD_BEEF_0BADCAFEL)
  in
  [
    roundtrip "4k" Addr.page_size 0x8000L 0x18L;
    roundtrip "2m" Addr.large_page_size Addr.large_page_size 0x4040L;
    (* 1 GiB frame 0: probe at +0x2000 stays below the allocator base. *)
    roundtrip "1g" Addr.huge_page_size 0L 0x2000L;
    vc "pt/rw/store-denied-on-ro" (fun () ->
        let pt = fresh_pt () in
        let va = va_at () in
        match
          Page_table.map pt ~va ~frame:0x8000L ~size:Addr.page_size
            ~perm:Pte.ro
        with
        | Error _ -> false
        | Ok () -> (
            match translate_for_rw pt Mmu.Write va with
            | Error (Mmu.Protection _) -> not (store pt va 1L)
            | Ok _ | Error _ -> false));
    vc "pt/rw/load-faults-unmapped" (fun () ->
        let pt = fresh_pt () in
        load pt (va_at ()) = None);
    vc "pt/rw/aliasing-shares-frame" (fun () ->
        let pt = fresh_pt () in
        let va1 = va_at ~l1:1 () and va2 = va_at ~l1:2 () in
        let map va =
          Page_table.map pt ~va ~frame:0x8000L ~size:Addr.page_size
            ~perm:Pte.user_rw
          = Ok ()
        in
        map va1 && map va2
        && store pt va1 42L
        && load pt va2 = Some 42L);
    vc "pt/rw/pages-independent" (fun () ->
        let pt = fresh_pt () in
        let va1 = va_at ~l1:1 () and va2 = va_at ~l1:2 () in
        let map va frame =
          Page_table.map pt ~va ~frame ~size:Addr.page_size ~perm:Pte.user_rw
          = Ok ()
        in
        map va1 0x8000L && map va2 0x9000L
        && store pt va1 7L && store pt va2 9L
        && load pt va1 = Some 7L
        && load pt va2 = Some 9L);
    vc "pt/rw/offset-addressing" (fun () ->
        let pt = fresh_pt () in
        let va = va_at () in
        match
          Page_table.map pt ~va ~frame:0x8000L ~size:Addr.page_size
            ~perm:Pte.user_rw
        with
        | Error _ -> false
        | Ok () ->
            store pt (Int64.add va 8L) 5L
            && load pt va = Some 0L
            && load pt (Int64.add va 8L) = Some 5L);
  ]

(* ------------------------------------------------------------------ *)
(* Family K: randomized whole-trace refinement (12 VCs)                *)

let random_trace_vcs () =
  let universe_va g =
    let l4 = Gen.oneof g [ 0; 1 ] in
    let l3 = Gen.oneof g [ 0; 1 ] in
    let l2 = Gen.oneof g [ 0; 1; 2 ] in
    let l1 = Gen.oneof g [ 0; 1; 2 ] in
    (l4, l3, l2, l1)
  in
  let gen_op g (_ : Pt_spec.state) =
    let l4, l3, l2, l1 = universe_va g in
    let roll = Gen.int g 100 in
    if roll < 50 then begin
      let size =
        Gen.oneof g [ Addr.page_size; Addr.large_page_size; Addr.huge_page_size ]
      in
      let va =
        if size = Addr.huge_page_size then va_at ~l4 ~l3 ()
        else if size = Addr.large_page_size then va_at ~l4 ~l3 ~l2 ()
        else va_at ~l4 ~l3 ~l2 ~l1 ()
      in
      let frame = Int64.mul (Int64.of_int (1 + Gen.int g 4)) size in
      let _, perm = List.nth perm_cases (Gen.int g 4) in
      mk_map ~perm ~va ~frame ~size ()
    end
    else begin
      let size =
        Gen.oneof g [ Addr.page_size; Addr.large_page_size; Addr.huge_page_size ]
      in
      let va =
        if size = Addr.huge_page_size then va_at ~l4 ~l3 ()
        else if size = Addr.large_page_size then va_at ~l4 ~l3 ~l2 ()
        else va_at ~l4 ~l3 ~l2 ~l1 ()
      in
      if roll < 80 then Pt_spec.Unmap { va } else Pt_spec.Resolve { va }
    end
  in
  List.init 12 (fun seed ->
      let id = Printf.sprintf "pt/trace/random/%02d" seed in
      Vc.make ~id ~category:"refinement/trace" (fun () ->
          match
            R.check_random ~view:Page_table.view
              ~make_impl:(fun () -> fresh_pt ())
              ~init:Pt_spec.empty ~gen_op ~seed:id ~traces:2 ~steps:40
          with
          | Ok () -> Vc.Proved
          | Error f -> Vc.Falsified (Format.asprintf "%a" R.pp_failure f)))

(* ------------------------------------------------------------------ *)
(* Family L: structural well-formedness (7 VCs)                        *)

let well_formed_vcs () =
  let vc id f = Vc.prop ~id ~category:"invariant/well-formed" f in
  let map_is pt ~va ~size expected =
    let got =
      Page_table.map pt ~va ~frame:(Int64.mul 4L Addr.huge_page_size) ~size
        ~perm:Pte.user_rw
    in
    got = expected
  in
  [
    vc "pt/wf/after-map-4k" (fun () ->
        let pt = fresh_pt () in
        map_is pt ~va:(va_at ()) ~size:Addr.page_size (Ok ())
        && Page_table.well_formed pt);
    vc "pt/wf/after-map-2m" (fun () ->
        let pt = fresh_pt () in
        map_is pt ~va:(va_at ()) ~size:Addr.large_page_size (Ok ())
        && Page_table.well_formed pt);
    vc "pt/wf/after-map-1g" (fun () ->
        let pt = fresh_pt () in
        map_is pt ~va:(va_at ()) ~size:Addr.huge_page_size (Ok ())
        && Page_table.well_formed pt);
    vc "pt/wf/after-unmap" (fun () ->
        let pt = fresh_pt () in
        map_is pt ~va:(va_at ~l1:0 ()) ~size:Addr.page_size (Ok ())
        && map_is pt ~va:(va_at ~l1:1 ()) ~size:Addr.page_size (Ok ())
        && Page_table.unmap pt ~va:(va_at ~l1:0 ()) = Ok (Int64.mul 4L Addr.huge_page_size)
        && Page_table.well_formed pt);
    vc "pt/wf/after-failed-map" (fun () ->
        let pt = fresh_pt () in
        map_is pt ~va:(va_at ()) ~size:Addr.page_size (Ok ())
        && map_is pt ~va:(va_at ()) ~size:Addr.page_size
             (Error Pt_spec.Already_mapped)
        && Page_table.well_formed pt);
    vc "pt/wf/mixed-sizes-coexist" (fun () ->
        let pt = fresh_pt () in
        (* A 4 KiB and a 2 MiB mapping under the same 1 GiB region. *)
        map_is pt ~va:(va_at ~l2:0 ~l1:0 ()) ~size:Addr.page_size (Ok ())
        && map_is pt ~va:(va_at ~l2:1 ()) ~size:Addr.large_page_size (Ok ())
        && Page_table.well_formed pt
        && List.length (Pt_spec.mappings (Page_table.view pt)) = 2);
    vc "pt/wf/dense-l1-churn" (fun () ->
        let pt = fresh_pt () in
        let ok = ref true in
        for l1 = 0 to 7 do
          if
            Page_table.map pt ~va:(va_at ~l1 ())
              ~frame:(Int64.mul (Int64.of_int (l1 + 1)) Addr.page_size)
              ~size:Addr.page_size ~perm:Pte.user_rw
            <> Ok ()
          then ok := false
        done;
        for l1 = 0 to 2 do
          match Page_table.unmap pt ~va:(va_at ~l1 ()) with
          | Ok _ -> ()
          | Error _ -> ok := false
        done;
        !ok && Page_table.well_formed pt
        && List.length (Pt_spec.mappings (Page_table.view pt)) = 5);
  ]

(* ------------------------------------------------------------------ *)
(* Family M: ghost/contract obligations of the verified wrapper (6)    *)

let fresh_verified () =
  let mem = Phys_mem.create ~size:small_mem_bytes in
  let page = Int64.to_int Addr.page_size in
  let frames =
    Frame_alloc.create ~mem
      ~base:(Int64.of_int (reserved * page))
      ~frames:((small_mem_bytes / page) - reserved)
  in
  Pt_verified.create ~mem ~frames

let ghost_vcs () =
  let vc id f = Vc.prop ~id ~category:"ghost/contract" f in
  let checked f = Contract.with_mode Contract.Checked f in
  [
    vc "pt/ghost/checked-map-sequence" (fun () ->
        checked (fun () ->
            let v = fresh_verified () in
            Pt_verified.map v ~va:(va_at ~l1:0 ()) ~frame:0x10_0000L
              ~size:Addr.page_size ~perm:Pte.user_rw
            = Ok ()
            && Pt_verified.map v ~va:(va_at ~l1:1 ()) ~frame:0x20_0000L
                 ~size:Addr.page_size ~perm:Pte.rw
               = Ok ()
            && List.length (Pt_spec.mappings (Pt_verified.ghost_state v)) = 2));
    vc "pt/ghost/checked-unmap-sequence" (fun () ->
        checked (fun () ->
            let v = fresh_verified () in
            Pt_verified.map v ~va:(va_at ()) ~frame:0x10_0000L
              ~size:Addr.page_size ~perm:Pte.user_rw
            = Ok ()
            && Pt_verified.unmap v ~va:(va_at ()) = Ok 0x10_0000L
            && Pt_spec.mappings (Pt_verified.ghost_state v) = []));
    vc "pt/ghost/checked-resolve" (fun () ->
        checked (fun () ->
            let v = fresh_verified () in
            Pt_verified.map v ~va:(va_at ()) ~frame:0x10_0000L
              ~size:Addr.page_size ~perm:Pte.user_rw
            = Ok ()
            && Pt_verified.resolve v ~va:(Int64.add (va_at ()) 0x10L)
               = Ok (0x10_0010L, Pte.user_rw)));
    vc "pt/ghost/checked-error-paths" (fun () ->
        checked (fun () ->
            let v = fresh_verified () in
            Pt_verified.map v ~va:(va_at ()) ~frame:0x10_0000L
              ~size:Addr.page_size ~perm:Pte.user_rw
            = Ok ()
            && Pt_verified.map v ~va:(va_at ()) ~frame:0x20_0000L
                 ~size:Addr.page_size ~perm:Pte.user_rw
               = Error Pt_spec.Already_mapped
            && Pt_verified.unmap v ~va:(va_at ~l1:5 ())
               = Error Pt_spec.Not_mapped));
    vc "pt/ghost/erased-equals-checked" (fun () ->
        let run mode =
          Contract.with_mode mode (fun () ->
              let v = fresh_verified () in
              let r1 =
                Pt_verified.map v ~va:(va_at ()) ~frame:0x10_0000L
                  ~size:Addr.page_size ~perm:Pte.user_rw
              in
              let r2 = Pt_verified.resolve v ~va:(va_at ()) in
              let r3 = Pt_verified.unmap v ~va:(va_at ()) in
              (r1, r2, r3))
        in
        run Contract.Checked = run Contract.Erased);
    vc "pt/ghost/detects-corruption" (fun () ->
        checked (fun () ->
            let v = fresh_verified () in
            if
              Pt_verified.map v ~va:(va_at ()) ~frame:0x10_0000L
                ~size:Addr.page_size ~perm:Pte.user_rw
              <> Ok ()
            then false
            else begin
              (* Clobber the root's first entry behind the wrapper's back;
                 the next checked operation must flag the divergence. *)
              let pt = Pt_verified.inner v in
              Phys_mem.write_u64 (Page_table.mem pt) (Page_table.root pt) 0L;
              match Pt_verified.resolve v ~va:(va_at ()) with
              | exception Contract.Violation _ -> true
              | Ok _ | Error _ -> false
            end));
  ]

(* ------------------------------------------------------------------ *)
(* Extension suite: batched range operations refine the per-page fold.
   Registered as its own verify suite ("ptb"), outside the paper's 220. *)

type range_op =
  | RMap of {
      va : Addr.vaddr;
      frame : Addr.paddr;
      pages : int;
      perm : Pte.perm;
    }
  | RUnmap of { va : Addr.vaddr; pages : int }
  | RProtect of { va : Addr.vaddr; pages : int; perm : Pte.perm }
  | Single of Pt_spec.op

let equal_unit_res a b =
  match (a, b) with
  | Ok (), Ok () -> true
  | Error (i, e), Error (j, f) -> i = j && e = f
  | (Ok _ | Error _), _ -> false

let equal_frames_res a b =
  match (a, b) with
  | Ok xs, Ok ys ->
      List.length xs = List.length ys && List.for_all2 Int64.equal xs ys
  | Error (i, e), Error (j, f) -> i = j && e = f
  | (Ok _ | Error _), _ -> false

(* Run a script of batched and single operations, requiring after every
   step that the implementation's result matches the spec fold, the
   memory view matches the spec state, and the tree stays well-formed
   (the all-or-nothing-per-page obligation is exactly the view equality
   on mid-range error steps). *)
let run_range_script ops () =
  let pt = fresh_pt ~bytes:big_mem_bytes () in
  let rec go step spec = function
    | [] -> Vc.Proved
    | op :: rest -> (
        let outcome =
          match op with
          | RMap { va; frame; pages; perm } ->
              let spec', expected =
                Pt_spec.map_range spec ~va ~frame ~pages ~perm
              in
              let got = Page_table.map_range pt ~va ~frame ~pages ~perm in
              (spec', equal_unit_res got expected, "map_range")
          | RUnmap { va; pages } ->
              let spec', expected = Pt_spec.unmap_range spec ~va ~pages in
              let got = Page_table.unmap_range pt ~va ~pages in
              (spec', equal_frames_res got expected, "unmap_range")
          | RProtect { va; pages; perm } ->
              let spec', expected =
                Pt_spec.protect_range spec ~va ~pages ~perm
              in
              let got = Page_table.protect_range pt ~va ~pages ~perm in
              (spec', equal_unit_res got expected, "protect_range")
          | Single op -> (
              match Pt_spec.step spec op with
              | Some (spec', expected) ->
                  let got = Impl.step pt op in
                  (spec', Pt_spec.equal_ret got expected, "single op")
              | None -> (spec, false, "spec disabled"))
        in
        let spec', ret_ok, label = outcome in
        let fail what =
          Vc.Falsified (Printf.sprintf "step %d (%s): %s" step label what)
        in
        if not ret_ok then fail "result diverges from per-page fold"
        else if not (Pt_spec.equal_state (Page_table.view pt) spec') then
          fail "memory view diverges from spec state"
        else if not (Page_table.well_formed pt) then
          fail "tree no longer well-formed"
        else go (step + 1) spec' rest)
  in
  go 0 Pt_spec.empty ops

let range_scripted_vcs () =
  let vc id category ops = Vc.make ~id ~category (run_range_script ops) in
  let urw = Pte.user_rw in
  let f0 = 0x10_0000L in
  let hole_lo = 0x7FFF_FFFF_E000L (* last pages below the canonical hole *) in
  [
    (* map_range *)
    vc "ptb/map/within-one-l1" "batch/map"
      [ RMap { va = va_at ~l1:3 (); frame = f0; pages = 5; perm = urw } ];
    vc "ptb/map/cross-l1-boundary" "batch/map"
      [ RMap { va = va_at ~l1:510 (); frame = f0; pages = 5; perm = urw } ];
    vc "ptb/map/cross-l2-boundary" "batch/map"
      [
        RMap
          { va = va_at ~l2:511 ~l1:510 (); frame = f0; pages = 5; perm = urw };
      ];
    vc "ptb/map/cross-l3-boundary" "batch/map"
      [
        RMap
          {
            va = va_at ~l3:511 ~l2:511 ~l1:510 ();
            frame = f0;
            pages = 5;
            perm = urw;
          };
      ];
    vc "ptb/map/full-l1-chunk" "batch/map"
      [ RMap { va = va_at ~l2:2 (); frame = f0; pages = 512; perm = urw } ];
    vc "ptb/map/mid-range-already-mapped" "batch/map"
      [
        Single (mk_map ~perm:urw ~va:(va_at ~l1:7 ()) ~frame:0x80_0000L
                  ~size:Addr.page_size ());
        (* fails at index 3 with pages 0-2 kept mapped *)
        RMap { va = va_at ~l1:4 (); frame = f0; pages = 8; perm = urw };
      ];
    vc "ptb/map/blocked-by-2m-leaf" "batch/map"
      [
        Single (mk_map ~perm:urw ~va:(va_at ~l2:1 ()) ~frame:0x80_0000L
                  ~size:Addr.large_page_size ());
        (* slots 510-511 of the first L1 succeed; the next chunk's
           descent hits the 2 MiB leaf *)
        RMap { va = va_at ~l2:0 ~l1:510 (); frame = f0; pages = 8; perm = urw };
      ];
    vc "ptb/map/misaligned-va" "batch/map"
      [
        RMap
          {
            va = Int64.add (va_at ~l1:1 ()) 0x10L;
            frame = f0;
            pages = 3;
            perm = urw;
          };
      ];
    vc "ptb/map/misaligned-frame" "batch/map"
      [
        RMap
          {
            va = va_at ~l1:1 ();
            frame = Int64.add f0 0x10L;
            pages = 3;
            perm = urw;
          };
      ];
    vc "ptb/map/non-canonical" "batch/map"
      [ RMap { va = non_canonical_va; frame = f0; pages = 3; perm = urw } ];
    vc "ptb/map/crosses-canonical-hole" "batch/map"
      [
        (* pages 0-1 land below 2^47, page 2 is non-canonical; the fold
           keeps the first two mapped *)
        RMap { va = hole_lo; frame = f0; pages = 4; perm = urw };
      ];
    vc "ptb/map/zero-pages" "batch/map"
      [ RMap { va = va_at ~l1:1 (); frame = f0; pages = 0; perm = urw } ];
    (* unmap_range *)
    vc "ptb/unmap/exact-range" "batch/unmap"
      [
        RMap { va = va_at ~l1:2 (); frame = f0; pages = 6; perm = urw };
        RUnmap { va = va_at ~l1:2 (); pages = 6 };
      ];
    vc "ptb/unmap/cross-l1-boundary" "batch/unmap"
      [
        RMap { va = va_at ~l1:510 (); frame = f0; pages = 4; perm = urw };
        RUnmap { va = va_at ~l1:510 (); pages = 4 };
      ];
    vc "ptb/unmap/mid-range-hole" "batch/unmap"
      [
        RMap { va = va_at ~l1:0 (); frame = f0; pages = 3; perm = urw };
        RMap { va = va_at ~l1:4 (); frame = f0; pages = 2; perm = urw };
        (* fails at index 3; pages 0-2 are unmapped by then *)
        RUnmap { va = va_at ~l1:0 (); pages = 6 };
      ];
    vc "ptb/unmap/partial-prefix" "batch/unmap"
      [
        RMap { va = va_at ~l1:0 (); frame = f0; pages = 8; perm = urw };
        RUnmap { va = va_at ~l1:2 (); pages = 3 };
        Single (Pt_spec.Resolve { va = va_at ~l1:1 () });
        Single (Pt_spec.Resolve { va = va_at ~l1:3 () });
      ];
    vc "ptb/unmap/2m-leaf-at-base" "batch/unmap"
      [
        Single (mk_map ~perm:urw ~va:(va_at ~l2:1 ()) ~frame:0x80_0000L
                  ~size:Addr.large_page_size ());
        (* page 0 unmaps the whole 2 MiB mapping; page 1 then faults *)
        RUnmap { va = va_at ~l2:1 (); pages = 2 };
      ];
    vc "ptb/unmap/2m-leaf-single-page" "batch/unmap"
      [
        Single (mk_map ~perm:urw ~va:(va_at ~l2:1 ()) ~frame:0x80_0000L
                  ~size:Addr.large_page_size ());
        RUnmap { va = va_at ~l2:1 (); pages = 1 };
      ];
    vc "ptb/unmap/inside-2m-not-base" "batch/unmap"
      [
        Single (mk_map ~perm:urw ~va:(va_at ~l2:1 ()) ~frame:0x80_0000L
                  ~size:Addr.large_page_size ());
        RUnmap { va = va_at ~l2:1 ~l1:1 (); pages = 1 };
      ];
    vc "ptb/unmap/1g-leaf-at-base" "batch/unmap"
      [
        Single (mk_map ~perm:urw ~va:(va_at ~l3:1 ())
                  ~frame:Addr.huge_page_size ~size:Addr.huge_page_size ());
        RUnmap { va = va_at ~l3:1 (); pages = 2 };
      ];
    vc "ptb/unmap/not-mapped" "batch/unmap"
      [ RUnmap { va = va_at ~l1:9 (); pages = 2 } ];
    vc "ptb/unmap/non-canonical" "batch/unmap"
      [ RUnmap { va = non_canonical_va; pages = 2 } ];
    vc "ptb/unmap/remap-after-range" "batch/unmap"
      [
        RMap { va = va_at ~l1:0 (); frame = f0; pages = 4; perm = urw };
        RUnmap { va = va_at ~l1:0 (); pages = 4 };
        RMap { va = va_at ~l1:0 (); frame = 0x80_0000L; pages = 4; perm = urw };
        Single (Pt_spec.Resolve { va = va_at ~l1:2 () });
      ];
    (* protect_range *)
    vc "ptb/protect/exact-range" "batch/protect"
      [
        RMap { va = va_at ~l1:2 (); frame = f0; pages = 6; perm = urw };
        RProtect { va = va_at ~l1:2 (); pages = 6; perm = Pte.ro };
        Single (Pt_spec.Resolve { va = va_at ~l1:3 () });
      ];
    vc "ptb/protect/cross-l1-boundary" "batch/protect"
      [
        RMap { va = va_at ~l1:510 (); frame = f0; pages = 4; perm = urw };
        RProtect { va = va_at ~l1:510 (); pages = 4; perm = Pte.user_rx };
      ];
    vc "ptb/protect/mid-range-hole" "batch/protect"
      [
        RMap { va = va_at ~l1:0 (); frame = f0; pages = 3; perm = urw };
        (* fails at index 3 with pages 0-2 already re-protected *)
        RProtect { va = va_at ~l1:0 (); pages = 5; perm = Pte.ro };
        Single (Pt_spec.Resolve { va = va_at ~l1:1 () });
      ];
    vc "ptb/protect/2m-leaf-at-base" "batch/protect"
      [
        Single (mk_map ~perm:urw ~va:(va_at ~l2:1 ()) ~frame:0x80_0000L
                  ~size:Addr.large_page_size ());
        RProtect { va = va_at ~l2:1 (); pages = 2; perm = Pte.ro };
        Single (Pt_spec.Resolve { va = va_at ~l2:1 ~l1:1 () });
      ];
    vc "ptb/protect/inside-2m-not-base" "batch/protect"
      [
        Single (mk_map ~perm:urw ~va:(va_at ~l2:1 ()) ~frame:0x80_0000L
                  ~size:Addr.large_page_size ());
        RProtect { va = va_at ~l2:1 ~l1:1 (); pages = 1; perm = Pte.ro };
      ];
    vc "ptb/protect/not-mapped" "batch/protect"
      [ RProtect { va = va_at ~l1:9 (); pages = 2; perm = Pte.ro } ];
  ]

let range_reclaim_vcs () =
  let vc id f = Vc.prop ~id ~category:"batch/reclaim" f in
  [
    vc "ptb/reclaim/unmap-range-reclaims-tables" (fun () ->
        let pt = fresh_pt () in
        Page_table.map_range pt ~va:(va_at ~l1:510 ()) ~frame:0x20_0000L
          ~pages:4 ~perm:Pte.user_rw
        = Ok ()
        (* root + L3 + L2 + two L1 tables *)
        && Page_table.table_frames pt = 5
        && (match Page_table.unmap_range pt ~va:(va_at ~l1:510 ()) ~pages:4 with
           | Ok frames -> List.length frames = 4
           | Error _ -> false)
        && Page_table.table_frames pt = 1);
    vc "ptb/reclaim/partial-unmap-keeps-shared" (fun () ->
        let pt = fresh_pt () in
        Page_table.map_range pt ~va:(va_at ~l1:510 ()) ~frame:0x20_0000L
          ~pages:4 ~perm:Pte.user_rw
        = Ok ()
        (* dropping only the second L1's pages reclaims just that table *)
        && (match Page_table.unmap_range pt ~va:(va_at ~l2:1 ~l1:0 ()) ~pages:2 with
           | Ok frames -> List.length frames = 2
           | Error _ -> false)
        && Page_table.table_frames pt = 4
        && Page_table.well_formed pt);
    vc "ptb/reclaim/error-midway-still-reclaims-prefix" (fun () ->
        let pt = fresh_pt () in
        Page_table.map_range pt ~va:(va_at ~l1:511 ()) ~frame:0x20_0000L
          ~pages:1 ~perm:Pte.user_rw
        = Ok ()
        && Page_table.table_frames pt = 4
        (* page 0 unmaps and empties the first L1; page 1 (next chunk)
           fails, but the emptied table must already be reclaimed *)
        && Page_table.unmap_range pt ~va:(va_at ~l1:511 ()) ~pages:2
           = Error (1, Pt_spec.Not_mapped)
        && Page_table.table_frames pt = 1
        && Page_table.well_formed pt);
  ]

(* The tentpole's headline obligation: a 512-page batch against a warm
   upper path costs at least 3x fewer hardware-memory accesses than 512
   single maps of the same pages. *)
let range_access_count_vcs () =
  [
    Vc.prop ~id:"ptb/perf/512-batch-3x-fewer-accesses" ~category:"batch/perf"
      (fun () ->
        let accesses f =
          let pt = fresh_pt ~bytes:big_mem_bytes () in
          (* Warm the shared upper path (L4/L3/L2) with a guard page in a
             sibling L2 subtree, so both sides measure steady-state work,
             not first-touch table construction. *)
          (match
             Page_table.map pt ~va:(va_at ~l2:1 ()) ~frame:0x80_0000L
               ~size:Addr.page_size ~perm:Pte.user_rw
           with
          | Ok () -> ()
          | Error _ -> failwith "guard map failed");
          let mem = Page_table.mem pt in
          Phys_mem.reset_counters mem;
          f pt;
          Phys_mem.loads mem + Phys_mem.stores mem
        in
        let single =
          accesses (fun pt ->
              for i = 0 to 511 do
                match
                  Page_table.map pt ~va:(va_at ~l2:2 ~l1:i ())
                    ~frame:
                      (Int64.add 0x100_0000L
                         (Int64.mul (Int64.of_int i) Addr.page_size))
                    ~size:Addr.page_size ~perm:Pte.user_rw
                with
                | Ok () -> ()
                | Error _ -> failwith "single map failed"
              done)
        in
        let batched =
          accesses (fun pt ->
              match
                Page_table.map_range pt ~va:(va_at ~l2:2 ()) ~frame:0x100_0000L
                  ~pages:512 ~perm:Pte.user_rw
              with
              | Ok () -> ()
              | Error _ -> failwith "map_range failed")
        in
        single >= 3 * batched);
  ]

let gen_range_op g =
  let l3 = Gen.oneof g [ 0; 1 ] in
  let l2 = Gen.oneof g [ 0; 1 ] in
  let l1 = Gen.oneof g [ 0; 1; 2; 3; 510; 511 ] in
  let va = va_at ~l3 ~l2 ~l1 () in
  let pages = 1 + Gen.int g 5 in
  let _, perm = List.nth perm_cases (Gen.int g 4) in
  let frame =
    Int64.mul (Int64.of_int (1 + Gen.int g 8)) Addr.large_page_size
  in
  let roll = Gen.int g 100 in
  if roll < 35 then RMap { va; frame; pages; perm }
  else if roll < 55 then RUnmap { va; pages }
  else if roll < 70 then RProtect { va; pages; perm }
  else if roll < 80 then
    Single (mk_map ~perm ~va ~frame ~size:Addr.page_size ())
  else if roll < 88 then
    Single (mk_map ~perm ~va:(va_at ~l3 ~l2 ()) ~frame
              ~size:Addr.large_page_size ())
  else if roll < 94 then Single (Pt_spec.Unmap { va })
  else Single (Pt_spec.Resolve { va })

let range_random_vcs () =
  List.init 8 (fun seed ->
      let id = Printf.sprintf "ptb/random/%02d" seed in
      Vc.make ~id ~category:"batch/random" (fun () ->
          let g = Gen.of_string id in
          let script = List.init 40 (fun _ -> gen_range_op g) in
          run_range_script script ()))

let range_vcs () =
  range_scripted_vcs () @ range_reclaim_vcs () @ range_access_count_vcs ()
  @ range_random_vcs ()

(* ------------------------------------------------------------------ *)
(* Extension suite: PWC-enabled translation agrees with the uncached
   walk.  Registered as its own verify suite ("pwc"). *)

module Pwc = Bi_hw.Pwc

let translate_agrees a b =
  match (a, b) with
  | Ok (x : Mmu.translation), Ok (y : Mmu.translation) ->
      x.Mmu.pa = y.Mmu.pa
      && x.Mmu.page_size = y.Mmu.page_size
      && Pte.equal_perm x.Mmu.perm y.Mmu.perm
  | Error f, Error g -> Mmu.equal_fault f g
  | (Ok _ | Error _), _ -> false

let pwc_unit_vcs () =
  let vc id f = Vc.prop ~id ~category:"pwc/unit" f in
  let setup ?(pwc_capacity = 8) () =
    let pt = fresh_pt ~bytes:big_mem_bytes () in
    (pt, Pwc.create ~capacity:pwc_capacity)
  in
  let tr ?tlb ?pwc pt access va =
    Mmu.translate ?tlb ?pwc (Page_table.mem pt) ~cr3:(Page_table.root pt)
      access va
  in
  let map4k pt ~va ~frame =
    Page_table.map pt ~va ~frame ~size:Addr.page_size ~perm:Pte.user_rw
    = Ok ()
  in
  let walked n = function
    | Ok (t : Mmu.translation) -> t.Mmu.levels_walked = n
    | Error _ -> false
  in
  [
    vc "pwc/resume-at-pde" (fun () ->
        let pt, pwc = setup () in
        map4k pt ~va:(va_at ~l1:1 ()) ~frame:0x10_0000L
        && map4k pt ~va:(va_at ~l1:2 ()) ~frame:0x20_0000L
        (* first translation walks all 4 levels and fills the cache; a
           sibling in the same L1 table then resumes with 1 read *)
        && walked 4 (tr ~pwc pt Mmu.Read (va_at ~l1:1 ()))
        && walked 1 (tr ~pwc pt Mmu.Read (va_at ~l1:2 ())));
    vc "pwc/resume-at-pdpte" (fun () ->
        let pt, pwc = setup () in
        map4k pt ~va:(va_at ~l2:0 ~l1:1 ()) ~frame:0x10_0000L
        && map4k pt ~va:(va_at ~l2:1 ~l1:0 ()) ~frame:0x20_0000L
        (* different L2 window, same L3 table: PDPTE hit, 2 reads *)
        && walked 4 (tr ~pwc pt Mmu.Read (va_at ~l2:0 ~l1:1 ()))
        && walked 2 (tr ~pwc pt Mmu.Read (va_at ~l2:1 ~l1:0 ())));
    vc "pwc/map-needs-no-invalidation" (fun () ->
        let pt, pwc = setup () in
        map4k pt ~va:(va_at ~l1:1 ()) ~frame:0x10_0000L
        && walked 4 (tr ~pwc pt Mmu.Read (va_at ~l1:1 ()))
        (* mapping a new page after the fill: the positive-only cache
           serves it through the cached L1 pointer, no invlpg needed *)
        && map4k pt ~va:(va_at ~l1:3 ()) ~frame:0x30_0000L
        && walked 1 (tr ~pwc pt Mmu.Read (va_at ~l1:3 ())));
    vc "pwc/stale-resume-without-invlpg" (fun () ->
        let pt, pwc = setup () in
        let va = va_at ~l1:1 () in
        map4k pt ~va ~frame:0x10_0000L
        && walked 4 (tr ~pwc pt Mmu.Read va)
        && Page_table.unmap pt ~va = Ok 0x10_0000L
        (* the L1..L3 tables are reclaimed: the honest walk faults at L4,
           but the stale PDE pointer resumes into the freed (still
           zeroed) table and faults at L1 — the staleness the
           invalidation contract exists to prevent *)
        && tr pt Mmu.Read va = Error (Mmu.Not_present { level = 4 })
        && tr ~pwc pt Mmu.Read va = Error (Mmu.Not_present { level = 1 }));
    vc "pwc/invlpg-restores-agreement" (fun () ->
        let pt, pwc = setup () in
        let va = va_at ~l1:1 () in
        map4k pt ~va ~frame:0x10_0000L
        && walked 4 (tr ~pwc pt Mmu.Read va)
        && Page_table.unmap pt ~va = Ok 0x10_0000L
        && begin
             Pwc.invlpg pwc va;
             translate_agrees (tr ~pwc pt Mmu.Read va) (tr pt Mmu.Read va)
           end);
    vc "pwc/flush-clears-everything" (fun () ->
        let pt, pwc = setup () in
        map4k pt ~va:(va_at ~l1:1 ()) ~frame:0x10_0000L
        && walked 4 (tr ~pwc pt Mmu.Read (va_at ~l1:1 ()))
        && Pwc.entry_count pwc = 3
        && begin
             Pwc.flush pwc;
             Pwc.entry_count pwc = 0
             && walked 4 (tr ~pwc pt Mmu.Read (va_at ~l1:1 ()))
           end);
    vc "pwc/capacity-eviction" (fun () ->
        let pwc = Pwc.create ~capacity:2 in
        let e = { Pwc.table = 0x1000L; perm = Pte.user_rw } in
        Pwc.insert pwc ~level:1 (va_at ~l2:0 ()) e;
        Pwc.insert pwc ~level:1 (va_at ~l2:1 ()) e;
        Pwc.insert pwc ~level:1 (va_at ~l2:2 ()) e;
        Pwc.entry_count pwc = 2
        && Pwc.lookup pwc (va_at ~l2:0 ()) = None);
    vc "pwc/invlpg-reinsert-queue-bounded" (fun () ->
        let pwc = Pwc.create ~capacity:4 in
        let e = { Pwc.table = 0x1000L; perm = Pte.user_rw } in
        for _ = 1 to 100 do
          Pwc.invlpg pwc (va_at ~l2:0 ());
          Pwc.insert pwc ~level:1 (va_at ~l2:0 ()) e
        done;
        Pwc.queue_length pwc <= (2 * 4) + 1
        && Pwc.lookup pwc (va_at ~l2:0 ()) <> None);
    vc "pwc/ro-still-denied-on-resume" (fun () ->
        let pt, pwc = setup () in
        let va1 = va_at ~l1:1 () and va2 = va_at ~l1:2 () in
        Page_table.map pt ~va:va1 ~frame:0x10_0000L ~size:Addr.page_size
          ~perm:Pte.user_rw
        = Ok ()
        && Page_table.map pt ~va:va2 ~frame:0x20_0000L ~size:Addr.page_size
             ~perm:Pte.ro
           = Ok ()
        && walked 4 (tr ~pwc pt Mmu.Read va1)
        (* the resumed walk must still meet the leaf's read-only bits *)
        && tr ~pwc pt Mmu.Write va2
           = Error (Mmu.Protection { level = 0; access = Mmu.Write }));
    vc "pwc/tlb-hit-takes-priority" (fun () ->
        let pt, pwc = setup () in
        let tlb = Tlb.create ~capacity:16 in
        let va = va_at ~l1:1 () in
        map4k pt ~va ~frame:0x10_0000L
        && walked 4 (tr ~tlb ~pwc pt Mmu.Read va)
        && walked 0 (tr ~tlb ~pwc pt Mmu.Read va));
  ]

(* Randomized map/unmap/invlpg histories: after every operation, a
   PWC-enabled translation of sampled probe addresses must agree with
   the uncached walk — given the kernel-side contract that every
   unmapped page gets an invlpg on the PWC, as the kernel's
   [Address_space.munmap] does (its [pwc/kernel/*] VCs check that
   side). *)
let pwc_random_agree_vcs () =
  List.init 8 (fun seed ->
      let id = Printf.sprintf "pwc/agree/%02d" seed in
      Vc.make ~id ~category:"pwc/agree" (fun () ->
          let g = Gen.of_string id in
          let pt = fresh_pt ~bytes:big_mem_bytes () in
          let pwc = Pwc.create ~capacity:8 in
          let mem = Page_table.mem pt and cr3 = Page_table.root pt in
          let page_va va i =
            Int64.add va (Int64.mul (Int64.of_int i) Addr.page_size)
          in
          let sample_va g =
            let l3 = Gen.oneof g [ 0; 1 ] in
            let l2 = Gen.oneof g [ 0; 1 ] in
            let l1 = Gen.oneof g [ 0; 1; 2; 3; 510; 511 ] in
            va_at ~l3 ~l2 ~l1 ()
          in
          let apply_op () =
            let va = sample_va g in
            let pages = 1 + Gen.int g 4 in
            let frame =
              Int64.mul (Int64.of_int (1 + Gen.int g 8)) Addr.large_page_size
            in
            let roll = Gen.int g 100 in
            if roll < 40 then
              ignore
                (Page_table.map_range pt ~va ~frame ~pages ~perm:Pte.user_rw)
            else if roll < 55 then
              ignore
                (Page_table.map pt ~va:(Addr.align_down va Addr.large_page_size)
                   ~frame ~size:Addr.large_page_size ~perm:Pte.user_rw)
            else begin
              (* unmap: apply the invalidation contract to every page
                 that was actually unmapped *)
              match Page_table.unmap_range pt ~va ~pages with
              | Ok _ ->
                  for i = 0 to pages - 1 do
                    Pwc.invlpg pwc (page_va va i)
                  done
              | Error (failed, _) ->
                  for i = 0 to failed - 1 do
                    Pwc.invlpg pwc (page_va va i)
                  done
            end
          in
          let check_probe () =
            let va = sample_va g in
            let access = if Gen.int g 2 = 0 then Mmu.Read else Mmu.Write in
            let cached = Mmu.translate ~pwc mem ~cr3 access va in
            let honest = Mmu.translate mem ~cr3 access va in
            if translate_agrees cached honest then None
            else
              Some
                (Format.asprintf "va 0x%Lx: pwc=%s honest=%s" va
                   (match cached with
                   | Ok t -> Format.asprintf "0x%Lx" t.Mmu.pa
                   | Error f -> Format.asprintf "%a" Mmu.pp_fault f)
                   (match honest with
                   | Ok t -> Format.asprintf "0x%Lx" t.Mmu.pa
                   | Error f -> Format.asprintf "%a" Mmu.pp_fault f))
          in
          let rec run step =
            if step >= 50 then Vc.Proved
            else begin
              apply_op ();
              let rec probe k =
                if k >= 4 then None
                else
                  match check_probe () with
                  | Some msg -> Some msg
                  | None -> probe (k + 1)
              in
              match probe 0 with
              | Some msg ->
                  Vc.Falsified (Printf.sprintf "step %d: %s" step msg)
              | None -> run (step + 1)
            end
          in
          run 0))

let pwc_vcs () = pwc_unit_vcs () @ pwc_random_agree_vcs ()

(* ------------------------------------------------------------------ *)

let all () =
  pte_roundtrip_vcs () @ addr_lemma_vcs () @ map_refinement_vcs ()
  @ cross_size_vcs () @ unmap_refinement_vcs () @ reclaim_vcs ()
  @ resolve_refinement_vcs () @ mmu_agreement_vcs () @ tlb_vcs ()
  @ rw_semantics_vcs () @ random_trace_vcs () @ well_formed_vcs ()
  @ ghost_vcs ()

let families () =
  let vcs = all () in
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (vc : Vc.t) ->
      let c = vc.Vc.category in
      if not (Hashtbl.mem tbl c) then begin
        order := c :: !order;
        Hashtbl.add tbl c 0
      end;
      Hashtbl.replace tbl c (Hashtbl.find tbl c + 1))
    vcs;
  List.rev_map (fun c -> (c, Hashtbl.find tbl c)) !order
