module Addr = Bi_hw.Addr
module Pte = Bi_hw.Pte
module Mmu = Bi_hw.Mmu
module Tlb = Bi_hw.Tlb
module Pwc = Bi_hw.Pwc
module Phys_mem = Bi_hw.Phys_mem
module Frame_alloc = Bi_hw.Frame_alloc
module Pt_verified = Bi_pt.Pt_verified
module Pt_spec = Bi_pt.Pt_spec

let user_base = 0x4000_0000L (* 1 GiB *)
let page = Addr.page_size
let page_i = Int64.to_int page

module type Invalidate = sig
  val after_munmap : Tlb.t -> Pwc.t -> Addr.vaddr -> unit
  val after_protect : Tlb.t -> Pwc.t -> Addr.vaddr -> unit
end

module Invlpg = struct
  (* An invlpg drops the page's TLB entry and the paging-structure-cache
     entries on its walk path (SDM vol. 3 §4.10.4.1). *)
  let invlpg tlb pwc va =
    Tlb.invlpg tlb va;
    Pwc.invlpg pwc va

  let after_munmap = invlpg
  let after_protect = invlpg
end

module type S = sig
  type t

  val create : mem:Phys_mem.t -> frames:Frame_alloc.t -> t
  val cr3 : t -> Addr.paddr
  val mmap : t -> bytes:int -> (int64, Sysabi.err) result
  val munmap : t -> va:int64 -> (unit, Sysabi.err) result
  val resolve : t -> va:int64 -> (Addr.paddr, Sysabi.err) result
  val protect : t -> va:int64 -> perm:Pte.perm -> (unit, Sysabi.err) result
  val load_u64 : t -> va:int64 -> (int64, Sysabi.err) result
  val store_u64 : t -> va:int64 -> int64 -> (unit, Sysabi.err) result
  val mapped_bytes : t -> int
  val destroy : t -> unit
end

module Make (I : Invalidate) = struct
  type region = { base : int64; pages : int; frames : Bi_hw.Addr.paddr list }

  type t = {
    mem : Phys_mem.t;
    frames : Frame_alloc.t;
    pt : Pt_verified.t;
    tlb : Tlb.t;
    pwc : Pwc.t;
    mutable regions : region list;
    mutable next_va : int64;
  }

  let create ~mem ~frames =
    {
      mem;
      frames;
      pt = Pt_verified.create ~mem ~frames;
      (* The capacities [Machine.create] gives each core. *)
      tlb = Tlb.create ~capacity:64;
      pwc = Pwc.create ~capacity:16;
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

  let page_va r i = Int64.add r.base (Int64.of_int (i * page_i))

  let invalidate t r f =
    for i = 0 to r.pages - 1 do
      f t.tlb t.pwc (page_va r i)
    done

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
              match Pt_verified.unmap t.pt ~va:(page_va r i) with
              | Ok frame -> Frame_alloc.free t.frames frame
              | Error _ -> ()
            done);
        invalidate t r I.after_munmap;
        t.regions <- List.filter (fun x -> x.base <> va) t.regions;
        Ok ()

  let protect t ~va ~perm =
    match find_region t va with
    | None -> Error Sysabi.E_inval
    | Some r -> (
        let result =
          Pt_verified.protect_range t.pt ~va:r.base ~pages:r.pages ~perm
        in
        (* A failed protect may have changed a prefix of the region. *)
        invalidate t r I.after_protect;
        match result with Ok () -> Ok () | Error _ -> Error Sysabi.E_fault)

  let resolve t ~va =
    match Pt_verified.resolve t.pt ~va with
    | Ok (pa, _) -> Ok pa
    | Error _ -> Error Sysabi.E_fault

  let load_u64 t ~va =
    match Mmu.load ~tlb:t.tlb ~pwc:t.pwc t.mem ~cr3:(cr3 t) va with
    | Ok v -> Ok v
    | Error _ -> Error Sysabi.E_fault

  let store_u64 t ~va v =
    match Mmu.store ~tlb:t.tlb ~pwc:t.pwc t.mem ~cr3:(cr3 t) va v with
    | Ok () -> Ok ()
    | Error _ -> Error Sysabi.E_fault

  let mapped_bytes t =
    List.fold_left (fun acc r -> acc + (r.pages * page_i)) 0 t.regions

  let destroy t =
    List.iter (fun r -> match munmap t ~va:r.base with Ok () | Error _ -> ())
      t.regions;
    Tlb.flush t.tlb;
    Pwc.flush t.pwc;
    (* Unmapping reclaims every interior table; the root is the one frame
       left. *)
    Frame_alloc.free t.frames (cr3 t)
end

include Make (Invlpg)
