let page = Int64.to_int Addr.page_size
let page_shift = 12

(* The all-zero frame every untouched slot shares.  It is never written:
   the first store to a frame gives that frame its own buffer. *)
let zero = Bytes.make page '\000'

type t = {
  frames : Bytes.t array; (* one buffer per 4 KiB frame, or [zero] *)
  mutable loads : int;
  mutable stores : int;
}

exception Bad_address of Addr.paddr

let create ~size =
  if size <= 0 || size mod page <> 0 then
    invalid_arg "Phys_mem.create: size must be a positive multiple of 4096";
  { frames = Array.make (size / page) zero; loads = 0; stores = 0 }

let size t = Array.length t.frames * page

let check t pa width =
  (* Compare in Int64: converting first would let pa >= 2^62 wrap to a
     negative index and surface as [Invalid_argument] from [Bytes]
     instead of [Bad_address]. *)
  if pa < 0L || Int64.compare pa (Int64.of_int (size t - width)) > 0 then
    raise (Bad_address pa);
  Int64.to_int pa

(* The buffer holding byte [i], for reading: untouched frames read as
   [zero]. *)
let frame t i = t.frames.(i lsr page_shift)

(* The buffer holding byte [i], for writing: materialised on first touch. *)
let frame_mut t i =
  let k = i lsr page_shift in
  let f = t.frames.(k) in
  if f != zero then f
  else begin
    let f = Bytes.make page '\000' in
    t.frames.(k) <- f;
    f
  end

let off i = i land (page - 1)

(* Split the byte range [i, i + len) at frame boundaries: [f i pos n] for
   each piece of [n] bytes starting at address [i], [pos] bytes into the
   range. *)
let rec pieces i len pos f =
  if len > 0 then begin
    let n = min len (page - off i) in
    f i pos n;
    pieces (i + n) (len - n) (pos + n) f
  end

let read_u64 t pa =
  if Int64.rem pa 8L <> 0L then raise (Bad_address pa);
  let i = check t pa 8 in
  t.loads <- t.loads + 1;
  Bytes.get_int64_le (frame t i) (off i)

let write_u64 t pa v =
  if Int64.rem pa 8L <> 0L then raise (Bad_address pa);
  let i = check t pa 8 in
  t.stores <- t.stores + 1;
  Bytes.set_int64_le (frame_mut t i) (off i) v

let read_u8 t pa =
  let i = check t pa 1 in
  t.loads <- t.loads + 1;
  Char.code (Bytes.get (frame t i) (off i))

let write_u8 t pa v =
  let i = check t pa 1 in
  t.stores <- t.stores + 1;
  Bytes.set (frame_mut t i) (off i) (Char.chr (v land 0xFF))

let read_bytes t pa len =
  let i = check t pa len in
  t.loads <- t.loads + ((len + 7) / 8);
  let out = Bytes.create len in
  pieces i len 0 (fun i pos n -> Bytes.blit (frame t i) (off i) out pos n);
  out

let write_bytes t pa b =
  let len = Bytes.length b in
  let i = check t pa len in
  t.stores <- t.stores + ((len + 7) / 8);
  pieces i len 0 (fun i pos n -> Bytes.blit b pos (frame_mut t i) (off i) n)

let zero_frame t pa =
  if not (Addr.is_aligned pa Addr.page_size) then raise (Bad_address pa);
  let i = check t pa page in
  let f = frame t i in
  if f != zero then Bytes.fill f 0 page '\000';
  t.stores <- t.stores + (page / 8)

let release_frame t pa =
  if not (Addr.is_aligned pa Addr.page_size) then raise (Bad_address pa);
  let i = check t pa page in
  t.frames.(i lsr page_shift) <- zero

let materialised t =
  Array.fold_left (fun n f -> if f != zero then n + 1 else n) 0 t.frames

let loads t = t.loads
let stores t = t.stores

let reset_counters t =
  t.loads <- 0;
  t.stores <- 0
