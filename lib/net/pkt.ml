(* Copy accounting: every primitive that moves payload bytes into or out
   of a buffer reports here, so the bench ablation can compare bytes
   copied per framed message between the copying and iovec paths.  The
   counters are domain-local, so a VC reading them under [verify --jobs]
   sees only the copies made on its own domain. *)
type copy_stats = { mutable bytes : int; mutable count : int }

let stats = Domain.DLS.new_key (fun () -> { bytes = 0; count = 0 })

let count_copy n =
  let c = Domain.DLS.get stats in
  c.count <- c.count + 1;
  c.bytes <- c.bytes + n

let reset_copy_stats () =
  let c = Domain.DLS.get stats in
  c.bytes <- 0;
  c.count <- 0

let copied_bytes () = (Domain.DLS.get stats).bytes
let copies () = (Domain.DLS.get stats).count

module W = struct
  type t = Buffer.t

  let create () = Buffer.create 64
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))
  let u16 b v = Buffer.add_uint16_be b (v land 0xFFFF)
  let u32 = Buffer.add_int32_be
  let i64 = Buffer.add_int64_be

  let bytes b x =
    count_copy (Bytes.length x);
    Buffer.add_bytes b x

  let string b x =
    count_copy (String.length x);
    Buffer.add_string b x

  let contents b =
    count_copy (Buffer.length b);
    Buffer.to_bytes b

  let length = Buffer.length
end

module R = struct
  type t = { data : bytes; mutable pos : int }

  exception Truncated

  let of_bytes ?(off = 0) data = { data; pos = off }

  let need t n = if t.pos + n > Bytes.length t.data then raise Truncated

  let u8 t =
    need t 1;
    let v = Char.code (Bytes.get t.data t.pos) in
    t.pos <- t.pos + 1;
    v

  (* A fixed-width big-endian field: bounds-checked once, read in one
     load. *)
  let word n get t =
    need t n;
    let v = get t.data t.pos in
    t.pos <- t.pos + n;
    v

  let u16 t = word 2 Bytes.get_uint16_be t
  let u32 t = word 4 Bytes.get_int32_be t
  let i64 t = word 8 Bytes.get_int64_be t

  let take t n =
    need t n;
    let b = Bytes.sub t.data t.pos n in
    count_copy n;
    t.pos <- t.pos + n;
    b

  let remaining t = Bytes.length t.data - t.pos
  let rest t = take t (remaining t)
end

module Iov = struct
  type slice = { base : bytes; off : int; len : int }
  type t = slice list

  let slice ?(off = 0) ?len base =
    let len = match len with Some l -> l | None -> Bytes.length base - off in
    if off < 0 || len < 0 || off + len > Bytes.length base then
      invalid_arg "Pkt.Iov.slice: out of range";
    { base; off; len }

  let of_bytes b = [ slice b ]

  (* No copy: slices are read-only by convention, so sharing the string's
     storage is safe. *)
  let of_string s = of_bytes (Bytes.unsafe_of_string s)
  let empty = []
  let length t = List.fold_left (fun acc s -> acc + s.len) 0 t
  let concat = List.concat

  let materialize t =
    let n = length t in
    let out = Bytes.create n in
    let pos = ref 0 in
    List.iter
      (fun { base; off; len } ->
        Bytes.blit base off out !pos len;
        pos := !pos + len)
      t;
    count_copy n;
    out

  let iter_bytes t f =
    List.iter
      (fun { base; off; len } ->
        for i = off to off + len - 1 do
          f (Char.code (Bytes.get base i))
        done)
      t
end

(* Direct big-endian header stores: the iov encoders build fixed-size
   headers in place instead of going through [W] (whose [contents] would
   count a copy the zero-copy path doesn't make). *)
let set_u16 b pos v = Bytes.set_uint16_be b pos (v land 0xFFFF)
let set_u32 = Bytes.set_int32_be

let fold_carry sum =
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  !s

let checksum data ~off ~len =
  let sum = ref 0 in
  let i = ref off in
  let last = off + len in
  while !i + 1 < last do
    sum := !sum + Bytes.get_uint16_be data !i;
    i := !i + 2
  done;
  if !i < last then sum := !sum + (Char.code (Bytes.get data !i) lsl 8);
  lnot (fold_carry !sum) land 0xFFFF

let checksum_valid data ~off ~len = checksum data ~off ~len = 0

(* Stride the one's-complement sum across slices without materializing.
   Byte parity (high/low half of the current 16-bit word) carries over
   slice boundaries, so odd-length slices sum exactly as the contiguous
   checksum does; a trailing odd byte pads with zero as in RFC 1071. *)
let checksum_iov ?(skip_slice = -1) iov =
  let sum = ref 0 in
  let hi = ref true in
  List.iteri
    (fun si s ->
      if si <> skip_slice then
        Iov.iter_bytes [ s ] (fun b ->
            if !hi then sum := !sum + (b lsl 8) else sum := !sum + b;
            hi := not !hi))
    iov;
  lnot (fold_carry !sum) land 0xFFFF
