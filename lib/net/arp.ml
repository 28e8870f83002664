type op = Request | Reply

type t = {
  op : op;
  sender_mac : string;
  sender_ip : int32;
  target_mac : string;
  target_ip : int32;
}

let encode t =
  let w = Pkt.W.create () in
  Pkt.W.u16 w 1 (* htype ethernet *);
  Pkt.W.u16 w 0x0800 (* ptype ipv4 *);
  Pkt.W.u8 w 6;
  Pkt.W.u8 w 4;
  Pkt.W.u16 w (match t.op with Request -> 1 | Reply -> 2);
  Pkt.W.string w t.sender_mac;
  Pkt.W.u32 w t.sender_ip;
  Pkt.W.string w t.target_mac;
  Pkt.W.u32 w t.target_ip;
  Pkt.W.contents w

let decode b =
  try
    let r = Pkt.R.of_bytes b in
    let htype = Pkt.R.u16 r in
    let ptype = Pkt.R.u16 r in
    let hlen = Pkt.R.u8 r in
    let plen = Pkt.R.u8 r in
    let opcode = Pkt.R.u16 r in
    if htype <> 1 || ptype <> 0x0800 || hlen <> 6 || plen <> 4 then None
    else begin
      let op =
        match opcode with 1 -> Some Request | 2 -> Some Reply | _ -> None
      in
      match op with
      | None -> None
      | Some op ->
          let sender_mac = Bytes.to_string (Pkt.R.take r 6) in
          let sender_ip = Pkt.R.u32 r in
          let target_mac = Bytes.to_string (Pkt.R.take r 6) in
          let target_ip = Pkt.R.u32 r in
          Some { op; sender_mac; sender_ip; target_mac; target_ip }
    end
  with Pkt.R.Truncated -> None

module Cache = struct
  module C = Bi_hw.Fifo_cache.Make (Int)

  type entry = string
  type cache = entry C.t

  let create ?(capacity = 64) () = C.create ~capacity

  (* The address as an immediate, as {!Bi_hw.Tlb} keys pages. *)
  let add c ip mac = C.insert c (Int32.to_int ip) mac
  let find c ip = C.find c (Int32.to_int ip)
  let size = C.entry_count
end
