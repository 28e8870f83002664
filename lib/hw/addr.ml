type vaddr = int64
type paddr = int64

let page_size = 4096L
let large_page_size = Int64.mul 512L page_size
let huge_page_size = Int64.mul 512L large_page_size
let entries_per_table = 512

let bit47 = Int64.shift_left 1L 47
let high_mask = Int64.shift_left (-1L) 48

let is_canonical va =
  let high = Int64.logand va high_mask in
  if Int64.logand va bit47 = 0L then high = 0L else high = high_mask

let canonicalize va =
  let low = Int64.logand va (Int64.lognot high_mask) in
  if Int64.logand va bit47 = 0L then low else Int64.logor low high_mask

let is_aligned a size = Int64.rem a size = 0L
let align_down a size = Int64.mul (Int64.div a size) size

let index_at va shift =
  Int64.to_int (Int64.logand (Int64.shift_right_logical va shift) 0x1FFL)

let l4_index va = index_at va 39
let l3_index va = index_at va 30
let l2_index va = index_at va 21
let l1_index va = index_at va 12

let offset_4k va = Int64.logand va 0xFFFL
let offset_2m va = Int64.logand va 0x1F_FFFFL
let offset_1g va = Int64.logand va 0x3FFF_FFFFL

let of_indices ~l4 ~l3 ~l2 ~l1 ~offset =
  let ( ||| ) = Int64.logor in
  let sl x n = Int64.shift_left (Int64.of_int x) n in
  canonicalize (sl l4 39 ||| sl l3 30 ||| sl l2 21 ||| sl l1 12 ||| offset)

let vpage_4k va = Int64.logand va (Int64.lognot 0xFFFL)
