type t = { dst : string; src : string; ethertype : int; payload : bytes }

let ethertype_ipv4 = 0x0800
let ethertype_arp = 0x0806
let broadcast = "\xff\xff\xff\xff\xff\xff"

let encode t =
  if String.length t.dst <> 6 || String.length t.src <> 6 then
    invalid_arg "Eth.encode: MACs must be 6 bytes";
  let w = Pkt.W.create () in
  Pkt.W.string w t.dst;
  Pkt.W.string w t.src;
  Pkt.W.u16 w t.ethertype;
  Pkt.W.bytes w t.payload;
  Pkt.W.contents w

(* Vectored encode: 14-byte header slice prepended to the payload iovec,
   no payload copy.  Must materialize to exactly [encode]'s bytes — the
   hp parity VCs check this. *)
let frame_iov ~dst ~src ~ethertype payload =
  if String.length dst <> 6 || String.length src <> 6 then
    invalid_arg "Eth.frame_iov: MACs must be 6 bytes";
  let h = Bytes.create 14 in
  Bytes.blit_string dst 0 h 0 6;
  Bytes.blit_string src 0 h 6 6;
  Pkt.set_u16 h 12 ethertype;
  Pkt.Iov.slice h :: payload

let decode frame =
  match Pkt.R.of_bytes frame with
  | r -> (
      try
        let dst = Bytes.to_string (Pkt.R.take r 6) in
        let src = Bytes.to_string (Pkt.R.take r 6) in
        let ethertype = Pkt.R.u16 r in
        Some { dst; src; ethertype; payload = Pkt.R.rest r }
      with Pkt.R.Truncated -> None)
