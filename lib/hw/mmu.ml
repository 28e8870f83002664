type access = Read | Write | Execute

type fault =
  | Not_present of { level : int }
  | Protection of { level : int; access : access }
  | Non_canonical

type translation = {
  pa : Addr.paddr;
  perm : Pte.perm;
  page_size : int64;
  levels_walked : int;
}

let pp_access ppf = function
  | Read -> Format.pp_print_string ppf "read"
  | Write -> Format.pp_print_string ppf "write"
  | Execute -> Format.pp_print_string ppf "execute"

let pp_fault ppf = function
  | Not_present { level } -> Format.fprintf ppf "not-present(L%d)" level
  | Protection { level; access } ->
      Format.fprintf ppf "protection(L%d,%a)" level pp_access access
  | Non_canonical -> Format.fprintf ppf "non-canonical"

let equal_fault a b =
  match (a, b) with
  | Not_present x, Not_present y -> x.level = y.level
  | Protection x, Protection y -> x.level = y.level && x.access = y.access
  | Non_canonical, Non_canonical -> true
  | (Not_present _ | Protection _ | Non_canonical), _ -> false

(* Effective permission is the conjunction along the walk: a page is
   writable/user/executable only if every level allows it.  Table entries in
   this model carry permissive bits (see Pte.encode), so leaves decide. *)
let meet (a : Pte.perm) (b : Pte.perm) : Pte.perm =
  {
    writable = a.writable && b.writable;
    user = a.user && b.user;
    executable = a.executable && b.executable;
  }

let entry_at mem table_base index =
  Phys_mem.read_u64 mem (Int64.add table_base (Int64.of_int (8 * index)))

let raw_perm raw : Pte.perm =
  {
    writable = Int64.logand raw 0x2L <> 0L;
    user = Int64.logand raw 0x4L <> 0L;
    executable = Int64.logand raw (Int64.shift_left 1L 63) = 0L;
  }

let top : Pte.perm = { writable = true; user = true; executable = true }

let no_record ~level:_ ~table:_ ~perm:_ = ()

(* Walk starting at [table] (a level-[level] table) with [perm] the meet
   accumulated above it.  [record] is called for every table pointer
   discovered on the way down — the paging-structure cache fill hook.
   [levels_walked] counts only the entry reads actually performed, so a
   resumed walk reports its own (smaller) cost. *)
let walk_from mem ~record va ~level ~table ~perm =
  let rec go level table_base perm walked =
    let index =
      match level with
      | 4 -> Addr.l4_index va
      | 3 -> Addr.l3_index va
      | 2 -> Addr.l2_index va
      | _ -> Addr.l1_index va
    in
    let raw = entry_at mem table_base index in
    let walked = walked + 1 in
    match Pte.decode ~level raw with
    | Pte.Absent -> Error (Not_present { level })
    | Pte.Table next ->
        let perm = meet perm (raw_perm raw) in
        record ~level:(level - 1) ~table:next ~perm;
        go (level - 1) next perm walked
    | Pte.Leaf { frame; perm = leaf_perm; huge = _ } ->
        let page_size, offset =
          match level with
          | 3 -> (Addr.huge_page_size, Addr.offset_1g va)
          | 2 -> (Addr.large_page_size, Addr.offset_2m va)
          | _ -> (Addr.page_size, Addr.offset_4k va)
        in
        Ok
          {
            pa = Int64.add frame offset;
            perm = meet perm leaf_perm;
            page_size;
            levels_walked = walked;
          }
  in
  go level table perm 0

let walk mem ~cr3 va =
  if not (Addr.is_canonical va) then Error Non_canonical
  else walk_from mem ~record:no_record va ~level:4 ~table:cr3 ~perm:top

let permits (perm : Pte.perm) = function
  | Read -> true
  | Write -> perm.writable
  | Execute -> perm.executable

let translate ?tlb ?pwc mem ~cr3 access va =
  (* The access check runs after translation completes, whether the
     translation came from the TLB or a walk, so a Protection fault is
     not attributable to any particular level: [level] is always 0. *)
  let serve (tr : translation) =
    if permits tr.perm access then Ok tr
    else Error (Protection { level = 0; access })
  in
  let cached =
    match tlb with
    | None -> None
    | Some tlb -> Tlb.lookup tlb va
  in
  match cached with
  | Some { Tlb.frame; perm } ->
      serve
        {
          pa = Int64.add frame (Addr.offset_4k va);
          perm;
          page_size = Addr.page_size;
          levels_walked = 0;
        }
  | None ->
      let walked =
        if not (Addr.is_canonical va) then Error Non_canonical
        else begin
          let record =
            match pwc with
            | None -> no_record
            | Some pwc ->
                fun ~level ~table ~perm ->
                  Pwc.insert pwc ~level va { Pwc.table; perm }
          in
          match
            match pwc with
            | None -> None
            | Some pwc -> Pwc.lookup pwc va
          with
          | Some (level, { Pwc.table; perm }) ->
              (* Resume the walk at the deepest cached table. *)
              walk_from mem ~record va ~level ~table ~perm
          | None -> walk_from mem ~record va ~level:4 ~table:cr3 ~perm:top
        end
      in
      (match walked with
      | Error _ as e -> e
      | Ok tr ->
          (match tlb with
          | None -> ()
          | Some tlb ->
              (* Cache at 4 KiB granularity regardless of mapping size. *)
              let frame_4k = Int64.sub tr.pa (Addr.offset_4k va) in
              Tlb.insert tlb va { Tlb.frame = frame_4k; perm = tr.perm });
          serve tr)

let load ?tlb ?pwc mem ~cr3 va =
  match translate ?tlb ?pwc mem ~cr3 Read va with
  | Error f -> Error f
  | Ok tr -> Ok (Phys_mem.read_u64 mem tr.pa)

let store ?tlb ?pwc mem ~cr3 va v =
  match translate ?tlb ?pwc mem ~cr3 Write va with
  | Error f -> Error f
  | Ok tr ->
      Phys_mem.write_u64 mem tr.pa v;
      Ok ()
