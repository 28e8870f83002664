module Addr = Bi_hw.Addr
module Pte = Bi_hw.Pte
module Mmu = Bi_hw.Mmu
module Phys_mem = Bi_hw.Phys_mem
module Frame_alloc = Bi_hw.Frame_alloc
module Pt_verified = Bi_pt.Pt_verified
module Pt_spec = Bi_pt.Pt_spec

let user_base = 0x4000_0000L (* 1 GiB *)
let page = Addr.page_size
let page_i = Int64.to_int page

type region = { base : int64; pages : int; frames : Bi_hw.Addr.paddr list }

type t = {
  mem : Phys_mem.t;
  frames : Frame_alloc.t;
  pt : Pt_verified.t;
  mutable regions : region list;
  mutable next_va : int64;
}

let create ~mem ~frames =
  {
    mem;
    frames;
    pt = Pt_verified.create ~mem ~frames;
    regions = [];
    next_va = user_base;
  }

let cr3 t = Bi_pt.Page_table.root (Pt_verified.inner t.pt)

let finish_mmap t ~base ~pages frames =
  t.regions <- { base; pages; frames } :: t.regions;
  t.next_va <- Int64.add base (Int64.of_int (pages * page_i));
  Ok base

(* Fast path for multi-page regions: one contiguous frame run mapped with a
   single batched [map_range] descent instead of [pages] root-to-leaf
   walks.  Falls back to the per-page path when physical memory is too
   fragmented for a contiguous run. *)
let mmap_batched t ~base ~pages =
  match Frame_alloc.alloc_contiguous t.frames pages with
  | exception Frame_alloc.Out_of_frames -> None
  | first ->
      let frame_at i = Int64.add first (Int64.mul (Int64.of_int i) page) in
      for i = 0 to pages - 1 do
        Phys_mem.zero_frame t.mem (frame_at i)
      done;
      Some
        (match
           Pt_verified.map_range t.pt ~va:base ~frame:first ~pages
             ~perm:Pte.user_rw
         with
        | Ok () -> finish_mmap t ~base ~pages (List.init pages frame_at)
        | Error (failed, _) ->
            (* Unmap the successfully-mapped prefix, release the whole
               run.  [next_va] only ever grows, so this cannot happen for
               a fresh region, but stay defensive. *)
            (match Pt_verified.unmap_range t.pt ~va:base ~pages:failed with
            | Ok _ | Error _ -> ());
            for i = 0 to pages - 1 do
              Frame_alloc.free t.frames (frame_at i)
            done;
            Error Sysabi.E_nomem)

let mmap t ~bytes =
  if bytes <= 0 then Error Sysabi.E_inval
  else begin
    let pages = (bytes + page_i - 1) / page_i in
    let base = t.next_va in
    match if pages > 1 then mmap_batched t ~base ~pages else None with
    | Some result -> result
    | None ->
    let rec map_pages i acc =
      if i >= pages then Ok (List.rev acc)
      else begin
        match Frame_alloc.alloc_zeroed t.frames with
        | exception Frame_alloc.Out_of_frames -> Error acc
        | frame -> (
            let va = Int64.add base (Int64.of_int (i * page_i)) in
            match
              Pt_verified.map t.pt ~va ~frame ~size:page ~perm:Pte.user_rw
            with
            | Ok () -> map_pages (i + 1) (frame :: acc)
            | Error _ ->
                Frame_alloc.free t.frames frame;
                Error acc)
      end
    in
    match map_pages 0 [] with
    | Ok frames -> finish_mmap t ~base ~pages frames
    | Error partial ->
        (* Roll back the pages mapped so far. *)
        List.iteri
          (fun i frame ->
            let idx = List.length partial - 1 - i in
            let va = Int64.add base (Int64.of_int (idx * page_i)) in
            (match Pt_verified.unmap t.pt ~va with
            | Ok _ | Error _ -> ());
            Frame_alloc.free t.frames frame)
          partial;
        Error Sysabi.E_nomem
  end

let find_region t va = List.find_opt (fun r -> r.base = va) t.regions

let munmap t ~va =
  match find_region t va with
  | None -> Error Sysabi.E_inval
  | Some r ->
      (match Pt_verified.unmap_range t.pt ~va:r.base ~pages:r.pages with
      | Ok frames -> List.iter (Frame_alloc.free t.frames) frames
      | Error (failed, _) ->
          (* A hole inside the region (should not happen through this
             API): the batched call unmapped pages [0, failed) but
             reports no frames, so recover them from the region record
             and finish page-by-page past the hole. *)
          List.iteri
            (fun i frame -> if i < failed then Frame_alloc.free t.frames frame)
            r.frames;
          for i = failed + 1 to r.pages - 1 do
            let page_va = Int64.add r.base (Int64.of_int (i * page_i)) in
            match Pt_verified.unmap t.pt ~va:page_va with
            | Ok frame -> Frame_alloc.free t.frames frame
            | Error _ -> ()
          done);
      t.regions <- List.filter (fun x -> x.base <> va) t.regions;
      Ok ()

let protect t ~va ~perm =
  match find_region t va with
  | None -> Error Sysabi.E_inval
  | Some r -> (
      match Pt_verified.protect_range t.pt ~va:r.base ~pages:r.pages ~perm with
      | Ok () -> Ok ()
      | Error _ -> Error Sysabi.E_fault)

let resolve t ~va =
  match Pt_verified.resolve t.pt ~va with
  | Ok (pa, _) -> Ok pa
  | Error _ -> Error Sysabi.E_fault

let load_u64 t ~va =
  match Mmu.load t.mem ~cr3:(cr3 t) va with
  | Ok v -> Ok v
  | Error _ -> Error Sysabi.E_fault

let store_u64 t ~va v =
  match Mmu.store t.mem ~cr3:(cr3 t) va v with
  | Ok () -> Ok ()
  | Error _ -> Error Sysabi.E_fault

let translate_byte t va access =
  match Mmu.translate t.mem ~cr3:(cr3 t) access va with
  | Ok tr -> Ok tr.Mmu.pa
  | Error _ -> Error Sysabi.E_fault

let load_bytes t ~va ~len =
  if len < 0 then Error Sysabi.E_inval
  else begin
    let out = Bytes.create len in
    let rec go i =
      if i >= len then Ok out
      else begin
        match translate_byte t (Int64.add va (Int64.of_int i)) Mmu.Read with
        | Error e -> Error e
        | Ok pa ->
            Bytes.set out i (Char.chr (Phys_mem.read_u8 t.mem pa));
            go (i + 1)
      end
    in
    go 0
  end

let store_bytes t ~va data =
  let len = Bytes.length data in
  let rec go i =
    if i >= len then Ok ()
    else begin
      match translate_byte t (Int64.add va (Int64.of_int i)) Mmu.Write with
      | Error e -> Error e
      | Ok pa ->
          Phys_mem.write_u8 t.mem pa (Char.code (Bytes.get data i));
          go (i + 1)
    end
  in
  go 0

let mapped_bytes t =
  List.fold_left (fun acc r -> acc + (r.pages * page_i)) 0 t.regions

let destroy t =
  List.iter (fun r -> match munmap t ~va:r.base with Ok () | Error _ -> ())
    t.regions;
  (* Unmapping reclaims every interior table; the root is the one frame
     left. *)
  Frame_alloc.free t.frames (cr3 t)
