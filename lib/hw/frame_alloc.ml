type t = {
  mem : Phys_mem.t;
  base : Addr.paddr;
  used : Bytes.t; (* one byte per frame; simple and fast enough *)
  mutable free_count : int;
  mutable cursor : int;
}

exception Out_of_frames

let page = Int64.to_int Addr.page_size

let create ~mem ~base ~frames =
  if not (Addr.is_aligned base Addr.page_size) then
    invalid_arg "Frame_alloc.create: base not page-aligned";
  if frames <= 0 then invalid_arg "Frame_alloc.create: frames <= 0";
  let last = Int64.add base (Int64.of_int (frames * page)) in
  if Int64.to_int last > Phys_mem.size mem then
    invalid_arg "Frame_alloc.create: range outside physical memory";
  { mem; base; used = Bytes.make frames '\000'; free_count = frames; cursor = 0 }

let total t = Bytes.length t.used
let free_count t = t.free_count
let base t = t.base

let index_of t pa =
  let off = Int64.sub pa t.base in
  if off < 0L || not (Addr.is_aligned pa Addr.page_size) then
    invalid_arg "Frame_alloc: address outside managed range";
  let i = Int64.to_int (Int64.div off Addr.page_size) in
  if i >= total t then invalid_arg "Frame_alloc: address outside managed range";
  i

let addr_of t i = Int64.add t.base (Int64.of_int (i * page))

let is_allocated t pa = Bytes.get t.used (index_of t pa) = '\001'

let alloc t =
  if t.free_count = 0 then raise Out_of_frames;
  let n = total t in
  let rec scan tried i =
    if tried >= n then raise Out_of_frames
    else if Bytes.get t.used i = '\000' then begin
      Bytes.set t.used i '\001';
      t.free_count <- t.free_count - 1;
      t.cursor <- (i + 1) mod n;
      addr_of t i
    end
    else scan (tried + 1) ((i + 1) mod n)
  in
  scan 0 t.cursor

let alloc_zeroed t =
  let pa = alloc t in
  Phys_mem.zero_frame t.mem pa;
  pa

let alloc_contiguous t n =
  if n <= 0 then invalid_arg "Frame_alloc.alloc_contiguous: n <= 0";
  let total_frames = total t in
  let run_free start =
    let rec ok k = k >= n || (Bytes.get t.used (start + k) = '\000' && ok (k + 1)) in
    ok 0
  in
  let rec find start =
    if start + n > total_frames then raise Out_of_frames
    else if run_free start then start
    else find (start + 1)
  in
  let start = find 0 in
  for k = 0 to n - 1 do
    Bytes.set t.used (start + k) '\001'
  done;
  t.free_count <- t.free_count - n;
  addr_of t start

let free t pa =
  let i = index_of t pa in
  if Bytes.get t.used i = '\000' then
    invalid_arg "Frame_alloc.free: double free";
  Bytes.set t.used i '\000';
  t.free_count <- t.free_count + 1;
  Phys_mem.release_frame t.mem pa
