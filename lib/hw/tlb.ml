module C = Fifo_cache.Make (Int)

type entry = { frame : Addr.paddr; perm : Pte.perm }
type t = entry C.t

let create ~capacity = C.create ~capacity

(* The virtual page number: an immediate, so a probe allocates no key. *)
let key va = Int64.to_int (Int64.shift_right_logical va 12)

let lookup t va =
  let e = C.find t (key va) in
  C.count t ~hit:(Option.is_some e);
  e

let insert t va e = C.insert t (key va) e
let invlpg t va = C.invalidate t (key va)
let flush = C.flush
let entry_count = C.entry_count
let queue_length = C.queue_length
let hits = C.hits
let misses = C.misses
let reset_counters = C.reset_counters
