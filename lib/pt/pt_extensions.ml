module Addr = Bi_hw.Addr
module Pte = Bi_hw.Pte
module Mmu = Bi_hw.Mmu
module Vc = Bi_core.Vc
module Gen = Bi_core.Gen

module R = Pt_refinement.R

let fresh_pt = Pt_refinement.fresh_pt
let va_at = Pt_refinement.va_at
let trace_vc ~id ops = Pt_refinement.trace_vc ~id ~category:"ext/protect" ops

let sizes =
  [
    ("4k", Addr.page_size, va_at ~l2:1 ~l1:1 ());
    ("2m", Addr.large_page_size, va_at ~l3:1 ~l2:2 ());
    ("1g", Addr.huge_page_size, va_at ~l4:1 ~l3:1 ());
  ]

let protect_refinement_vcs () =
  List.concat_map
    (fun (sname, size, base) ->
      let m frame perm = Pt_spec.Map { va = base; m = { Pt_spec.frame; perm; size } } in
      let frame = Int64.mul 8L Addr.huge_page_size in
      [
        trace_vc
          ~id:(Printf.sprintf "ptx/protect/%s/downgrade" sname)
          [
            m frame Pte.user_rw;
            Pt_spec.Protect { va = base; perm = Pte.ro };
            Pt_spec.Resolve { va = base };
          ];
        trace_vc
          ~id:(Printf.sprintf "ptx/protect/%s/upgrade" sname)
          [
            m frame Pte.ro;
            Pt_spec.Protect { va = base; perm = Pte.user_rw };
            Pt_spec.Resolve { va = Int64.add base (Int64.div size 2L) };
          ];
        trace_vc
          ~id:(Printf.sprintf "ptx/protect/%s/not-mapped" sname)
          [ Pt_spec.Protect { va = base; perm = Pte.rw } ];
        trace_vc
          ~id:(Printf.sprintf "ptx/protect/%s/inside-not-base" sname)
          [
            m frame Pte.user_rw;
            Pt_spec.Protect
              { va = Int64.add base Addr.page_size; perm = Pte.ro };
          ]
        (* for 4k: base+4k is a different (unmapped) page -> Not_mapped;
           for 2m/1g: inside the mapping but not its base -> Not_mapped *);
        trace_vc
          ~id:(Printf.sprintf "ptx/protect/%s/preserves-others" sname)
          [
            m frame Pte.user_rw;
            Pt_spec.Map
              {
                va = va_at ~l4:3 ();
                m =
                  {
                    Pt_spec.frame = Int64.mul 16L Addr.huge_page_size;
                    perm = Pte.user_rw;
                    size = Addr.page_size;
                  };
              };
            Pt_spec.Protect { va = base; perm = Pte.user_rx };
            Pt_spec.Resolve { va = va_at ~l4:3 () };
          ];
      ])
    sizes

let mmu_vcs () =
  [
    Vc.prop ~id:"ptx/protect/mmu-write-denied-after-downgrade"
      ~category:"ext/protect-hw" (fun () ->
        let pt = fresh_pt () in
        let va = va_at ~l2:1 () in
        match
          Page_table.map pt ~va ~frame:0x10_0000L ~size:Addr.page_size
            ~perm:Pte.user_rw
        with
        | Error _ -> false
        | Ok () -> (
            let cr3 = Page_table.root pt in
            let mem = Page_table.mem pt in
            match Mmu.store mem ~cr3 va 1L with
            | Error _ -> false
            | Ok () -> (
                match Page_table.protect pt ~va ~perm:Pte.ro with
                | Error _ -> false
                | Ok () -> (
                    (* Note: a real kernel must shoot down TLBs here. *)
                    match Mmu.translate mem ~cr3 Mmu.Write va with
                    | Error (Mmu.Protection _) -> true
                    | Ok _ | Error _ -> false))));
    Vc.prop ~id:"ptx/protect/mmu-exec-allowed-after-upgrade"
      ~category:"ext/protect-hw" (fun () ->
        let pt = fresh_pt () in
        let va = va_at ~l2:1 () in
        match
          Page_table.map pt ~va ~frame:0x10_0000L ~size:Addr.page_size
            ~perm:Pte.user_rw
        with
        | Error _ -> false
        | Ok () -> (
            match Page_table.protect pt ~va ~perm:Pte.user_rx with
            | Error _ -> false
            | Ok () -> (
                match
                  Mmu.translate (Page_table.mem pt) ~cr3:(Page_table.root pt)
                    Mmu.Execute va
                with
                | Ok _ -> true
                | Error _ -> false)));
    Vc.prop ~id:"ptx/protect/table-frames-unchanged" ~category:"ext/protect-hw"
      (fun () ->
        let pt = fresh_pt () in
        let va = va_at ~l2:1 () in
        match
          Page_table.map pt ~va ~frame:0x10_0000L ~size:Addr.page_size
            ~perm:Pte.user_rw
        with
        | Error _ -> false
        | Ok () ->
            let before = Page_table.table_frames pt in
            (match Page_table.protect pt ~va ~perm:Pte.ro with
            | Ok () -> ()
            | Error _ -> ());
            Page_table.table_frames pt = before && Page_table.well_formed pt);
  ]

let random_vcs () =
  let gen_op g (_ : Pt_spec.state) =
    let va =
      va_at ~l2:(Gen.oneof g [ 0; 1 ]) ~l1:(Gen.oneof g [ 0; 1; 2 ]) ()
    in
    let perms = [ Pte.rw; Pte.user_rw; Pte.user_rx; Pte.ro ] in
    match Gen.int g 10 with
    | 0 | 1 | 2 | 3 ->
        Pt_spec.Map
          {
            va;
            m =
              {
                Pt_spec.frame =
                  Int64.mul (Int64.of_int (1 + Gen.int g 8)) Addr.page_size;
                perm = Gen.oneof g perms;
                size = Addr.page_size;
              };
          }
    | 4 | 5 | 6 -> Pt_spec.Protect { va; perm = Gen.oneof g perms }
    | 7 | 8 -> Pt_spec.Resolve { va }
    | _ -> Pt_spec.Unmap { va }
  in
  List.init 6 (fun seed ->
      let id = Printf.sprintf "ptx/protect/random/%02d" seed in
      Vc.make ~id ~category:"ext/protect" (fun () ->
          match
            R.check_random ~view:Page_table.view ~make_impl:fresh_pt
              ~init:Pt_spec.empty ~gen_op ~seed:id ~traces:2 ~steps:40
          with
          | Ok () -> Vc.Proved
          | Error f -> Vc.Falsified (Format.asprintf "%a" R.pp_failure f)))

let vcs () = protect_refinement_vcs () @ mmu_vcs () @ random_vcs ()
