module Vc = Bi_core.Vc
module Gen = Bi_core.Gen
module Addr = Bi_hw.Addr
module Mmu = Bi_hw.Mmu
module Pte = Bi_hw.Pte
module Phys_mem = Bi_hw.Phys_mem
module Frame_alloc = Bi_hw.Frame_alloc

let category = "pwc/kernel"
let page = Addr.page_size
let nth_page va i = Int64.add va (Int64.mul (Int64.of_int i) page)

(* A few hundred frames at most under the allocator: its cursor wraps
   within a few dozen mmaps, so a freed frame soon belongs to another
   region or space and a stale translation reads or writes memory its
   space no longer owns. *)
let fresh_machine ~frames =
  let mem = Phys_mem.create ~size:((64 + frames) * 4096) in
  (mem, Frame_alloc.create ~mem ~base:(Int64.mul 64L page) ~frames)

let pp_result pp ppf = function
  | Ok v -> pp ppf v
  | Error e -> Sysabi.pp_err ppf e

let pp_unit ppf () = Format.pp_print_string ppf "ok"
let pp_word ppf v = Format.fprintf ppf "0x%Lx" v

(* The oracle: an uncached walk of the space's page table. *)
let walk mem ~cr3 va =
  match Mmu.walk mem ~cr3 va with Ok tr -> Some tr | Error _ -> None

(* Random programs over two address spaces sharing one machine.  After
   every step the program makes a few accesses, through the space's
   caches, to pages the space has ever mapped (or never did), and each
   must do what the walk on the space's [cr3] says: a load returns the
   word at the walked address or [E_fault] when the walk faults; a store
   succeeds and lands at the walked address exactly when the walk gives
   a writable page, else it is [E_fault]. *)
module Program (A : Address_space.S) = struct
  type space = {
    name : string;
    aspace : A.t;
    mutable live : (int64 * int) list; (* region base, pages *)
    mutable seen : int64 list; (* every page base ever mapped *)
  }

  let space mem frames name =
    { name; aspace = A.create ~mem ~frames; live = []; seen = [] }

  (* One access, [None] when the cached result agrees with the walk. *)
  let access mem g s va =
    let cr3 = A.cr3 s.aspace in
    let fail fmt =
      Format.kasprintf (fun m -> Some (Format.asprintf "%s 0x%Lx: %s" s.name va m))
        fmt
    in
    if Gen.bool g then begin
      let got = A.load_u64 s.aspace ~va in
      let want =
        match walk mem ~cr3 va with
        | Some tr -> Ok (Phys_mem.read_u64 mem tr.Mmu.pa)
        | None -> Error Sysabi.E_fault
      in
      if got = want then None
      else
        fail "load gave %a, walk says %a" (pp_result pp_word) got
          (pp_result pp_word) want
    end
    else begin
      let v = Gen.next64 g in
      let target =
        match walk mem ~cr3 va with
        | Some tr when tr.Mmu.perm.Pte.writable -> Ok tr.Mmu.pa
        | Some _ | None -> Error Sysabi.E_fault
      in
      let got = A.store_u64 s.aspace ~va v in
      match (got, target) with
      | Ok (), Ok pa when Phys_mem.read_u64 mem pa <> v ->
          fail "store missed the walked frame 0x%Lx" pa
      | Ok (), Ok _ | Error Sysabi.E_fault, Error _ -> None
      | _ ->
          fail "store gave %a, walk says %a" (pp_result pp_unit) got
            (pp_result pp_word) target
    end

  let probe_va g s =
    match s.seen with
    | _ :: _ when Gen.int g 8 > 0 ->
        Int64.add (Gen.oneof g s.seen) (Int64.of_int (8 * Gen.int g 512))
    | _ ->
        (* A page no region of this program reaches. *)
        nth_page Address_space.user_base (4096 + Gen.int g 64)

  let step g spaces =
    let s = Gen.oneof g spaces in
    let roll = Gen.int g 100 in
    match s.live with
    | (_ :: _ as live) when roll >= 30 ->
        let base, pages = Gen.oneof g live in
        if roll < 50 then begin
          ignore (A.munmap s.aspace ~va:base);
          s.live <- List.filter (fun (b, _) -> b <> base) s.live
        end
        else if roll < 75 then
          ignore
            (A.protect s.aspace ~va:base
               ~perm:(if Gen.bool g then Pte.user_rw else Pte.ro))
        else
          (* Touch the region so its pages are cached when it changes. *)
          for i = 0 to pages - 1 do
            ignore (A.load_u64 s.aspace ~va:(nth_page base i))
          done
    | _ -> (
        let pages = 1 + Gen.int g 3 in
        match A.mmap s.aspace ~bytes:(pages * Int64.to_int page) with
        | Ok base ->
            s.live <- (base, pages) :: s.live;
            s.seen <- List.init pages (nth_page base) @ s.seen
        | Error _ -> ())

  let run ~id =
    let g = Gen.of_string id in
    let mem, frames = fresh_machine ~frames:192 in
    let free0 = Frame_alloc.free_count frames in
    let spaces = [ space mem frames "A"; space mem frames "B" ] in
    let rec go n =
      if n >= 150 then None
      else begin
        Vc.checkpoint ();
        step g spaces;
        let rec probes k =
          if k >= 3 then go (n + 1)
          else
            let s = Gen.oneof g spaces in
            match access mem g s (probe_va g s) with
            | Some msg -> Some (Printf.sprintf "step %d: %s" n msg)
            | None -> probes (k + 1)
        in
        probes 0
      end
    in
    match go 0 with
    | Some msg -> Vc.Falsified msg
    | None ->
        List.iter (fun s -> A.destroy s.aspace) spaces;
        let free = Frame_alloc.free_count frames in
        if free = free0 then Vc.Proved
        else Vc.Falsified (Printf.sprintf "destroy left %d frames" (free0 - free))
end

module Kernel_program = Program (Address_space)

let agree_ids = List.init 8 (Printf.sprintf "pwc/kernel/agree/%02d")

let agree_vcs () =
  List.map
    (fun id -> Vc.make ~id ~category (fun () -> Kernel_program.run ~id))
    agree_ids

(* Process A caches a page and unmaps it; process B maps the recycled
   frame and stores a marker.  A's old address must fault, never reach
   B's marker. *)
let vc_unmap_faults_after_reuse =
  Vc.make ~id:"pwc/kernel/unmap-then-reuse-faults" ~category (fun () ->
      let mem, frames = fresh_machine ~frames:16 in
      let a = Address_space.create ~mem ~frames in
      let b = Address_space.create ~mem ~frames in
      let ( let* ) r f =
        match r with Ok x -> f x | Error _ -> Vc.Falsified "setup"
      in
      let* va = Address_space.mmap a ~bytes:4096 in
      let* () = Address_space.store_u64 a ~va 7L in
      let* frame = Address_space.resolve a ~va in
      let* () = Address_space.munmap a ~va in
      (* Map B until the allocator hands it A's old frame. *)
      let rec reuse n =
        if n = 0 then None
        else
          match Address_space.mmap b ~bytes:4096 with
          | Error _ -> None
          | Ok vb -> (
              match Address_space.resolve b ~va:vb with
              | Ok pa when pa = frame -> Some vb
              | _ -> reuse (n - 1))
      in
      match reuse 16 with
      | None -> Vc.Falsified "the allocator never recycled A's frame"
      | Some vb ->
          let* () = Address_space.store_u64 b ~va:vb 0xB0B0L in
          (match
             (Address_space.load_u64 a ~va, Address_space.store_u64 a ~va 1L)
           with
          | Error Sysabi.E_fault, Error Sysabi.E_fault ->
              Vc.outcome_of_bool
                (Address_space.load_u64 b ~va:vb = Ok 0xB0B0L)
          | load, store ->
              Vc.Falsified
                (Format.asprintf "A's unmapped page: load %a, store %a"
                   (pp_result pp_word) load (pp_result pp_unit) store)))

(* Every page of a region made read-only refuses stores, the last page
   included, though all of them were cached writable. *)
let vc_protect_faults_every_page =
  Vc.make ~id:"pwc/kernel/protect-faults-every-page" ~category (fun () ->
      let mem, frames = fresh_machine ~frames:16 in
      let a = Address_space.create ~mem ~frames in
      match Address_space.mmap a ~bytes:(3 * 4096) with
      | Error _ -> Vc.Falsified "mmap"
      | Ok va ->
          let pages = List.init 3 (nth_page va) in
          List.iter (fun p -> ignore (Address_space.store_u64 a ~va:p 5L)) pages;
          ignore (Address_space.protect a ~va ~perm:Pte.ro);
          let wrong p =
            match
              (Address_space.store_u64 a ~va:p 6L, Address_space.load_u64 a ~va:p)
            with
            | Error Sysabi.E_fault, Ok 5L -> None
            | store, load ->
                Some
                  (Format.asprintf "read-only page 0x%Lx: store %a, load %a" p
                     (pp_result pp_unit) store (pp_result pp_word) load)
          in
          match List.find_map wrong pages with
          | None -> Vc.Proved
          | Some msg -> Vc.Falsified msg)

(* Seeded bugs: the kernel's address space with one invalidation
   skipped.  The agree programs must catch each. *)
module Skip_munmap = struct
  include Address_space.Invlpg

  let after_munmap _ _ _ = ()
end

module Skip_protect = struct
  include Address_space.Invlpg

  let after_protect _ _ _ = ()
end

let mutant_vc ~id run =
  Vc.make ~id ~category:(category ^ "/mutant") (fun () ->
      match
        List.filter
          (fun seed ->
            match run ~id:seed with Vc.Proved -> true | _ -> false)
          agree_ids
      with
      | [] -> Vc.Proved
      | missed ->
          Vc.Falsified
            (Printf.sprintf "not caught by %s" (String.concat ", " missed)))

let mutant_vcs () =
  let module No_munmap = Program (Address_space.Make (Skip_munmap)) in
  let module No_protect = Program (Address_space.Make (Skip_protect)) in
  [
    mutant_vc ~id:"pwc/kernel/mutant/munmap-without-invlpg" No_munmap.run;
    mutant_vc ~id:"pwc/kernel/mutant/protect-without-invlpg" No_protect.run;
  ]

let vcs () =
  agree_vcs ()
  @ [ vc_unmap_faults_after_reuse; vc_protect_faults_every_page ]
  @ mutant_vcs ()
