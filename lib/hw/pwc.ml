module C = Fifo_cache.Make (Int)

type entry = { table : Addr.paddr; perm : Pte.perm }
type t = entry C.t

let create ~capacity = C.create ~capacity

let shift_of_level = function
  | 3 -> 39
  | 2 -> 30
  | 1 -> 21
  | l -> invalid_arg (Printf.sprintf "Pwc: no paging-structure cache at level %d" l)

(* An entry at level [l] caches the physical base of the level-[l] table
   on the walk path of every virtual address sharing the prefix above
   [l].  Level 3 models the PML4E cache (prefix = l4 index), level 2 the
   PDPTE cache (l4,l3), level 1 the PDE cache (l4,l3,l2).  The key is the
   prefix with the level in its two low bits: one immediate, no tuple. *)
let key_of ~level va =
  (Int64.to_int (Int64.shift_right_logical va (shift_of_level level)) lsl 2)
  lor level

(* Deepest-first: resuming at the L1 table skips the most walk reads. *)
let lookup t va =
  let rec probe level =
    if level > 3 then None
    else
      match C.find t (key_of ~level va) with
      | Some e -> Some (level, e)
      | None -> probe (level + 1)
  in
  let r = probe 1 in
  C.count t ~hit:(Option.is_some r);
  r

let insert t ~level va e = C.insert t (key_of ~level va) e

let invlpg t va =
  List.iter (fun level -> C.invalidate t (key_of ~level va)) [ 1; 2; 3 ]

let flush = C.flush
let entry_count = C.entry_count
let queue_length = C.queue_length
let hits = C.hits
let misses = C.misses
let reset_counters = C.reset_counters
