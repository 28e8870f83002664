type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

type segment = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_n : int32;
  flags : flags;
  window : int;
  payload : bytes;
}

let no_flags = { syn = false; ack = false; fin = false; rst = false; psh = false }

let flags_byte f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor if f.ack then 0x10 else 0

let byte_flags b =
  {
    fin = b land 0x01 <> 0;
    syn = b land 0x02 <> 0;
    rst = b land 0x04 <> 0;
    psh = b land 0x08 <> 0;
    ack = b land 0x10 <> 0;
  }

let pseudo_sum ~src_ip ~dst_ip seg_bytes =
  let w = Pkt.W.create () in
  Pkt.W.u32 w src_ip;
  Pkt.W.u32 w dst_ip;
  Pkt.W.u8 w 0;
  Pkt.W.u8 w Ip.proto_tcp;
  Pkt.W.u16 w (Bytes.length seg_bytes);
  Pkt.W.bytes w seg_bytes;
  let b = Pkt.W.contents w in
  Pkt.checksum b ~off:0 ~len:(Bytes.length b)

let encode_segment ~src_ip ~dst_ip t =
  let w = Pkt.W.create () in
  Pkt.W.u16 w t.src_port;
  Pkt.W.u16 w t.dst_port;
  Pkt.W.u32 w t.seq;
  Pkt.W.u32 w t.ack_n;
  Pkt.W.u8 w 0x50 (* data offset 5 words *);
  Pkt.W.u8 w (flags_byte t.flags);
  Pkt.W.u16 w t.window;
  Pkt.W.u16 w 0 (* checksum *);
  Pkt.W.u16 w 0 (* urgent *);
  Pkt.W.bytes w t.payload;
  let b = Pkt.W.contents w in
  let csum = pseudo_sum ~src_ip ~dst_ip b in
  let csum = if csum = 0 then 0xFFFF else csum in
  Bytes.set b 16 (Char.chr (csum lsr 8));
  Bytes.set b 17 (Char.chr (csum land 0xFF));
  b

(* Vectored encode: 20-byte header slice + one payload slice; the
   pseudo-header/segment checksum strides the slices.  Materializes to
   exactly [encode_segment]'s bytes (hp parity VC). *)
let encode_segment_iov ~src_ip ~dst_ip t =
  let h = Bytes.create 20 in
  Pkt.set_u16 h 0 t.src_port;
  Pkt.set_u16 h 2 t.dst_port;
  Pkt.set_u32 h 4 t.seq;
  Pkt.set_u32 h 8 t.ack_n;
  Bytes.set h 12 '\x50' (* data offset 5 words *);
  Bytes.set h 13 (Char.chr (flags_byte t.flags));
  Pkt.set_u16 h 14 t.window;
  Pkt.set_u16 h 16 0 (* checksum placeholder *);
  Pkt.set_u16 h 18 0 (* urgent *);
  let iov =
    if Bytes.length t.payload = 0 then [ Pkt.Iov.slice h ]
    else [ Pkt.Iov.slice h; Pkt.Iov.slice t.payload ]
  in
  let ph = Bytes.create 12 in
  Pkt.set_u32 ph 0 src_ip;
  Pkt.set_u32 ph 4 dst_ip;
  Bytes.set ph 8 '\x00';
  Bytes.set ph 9 (Char.chr Ip.proto_tcp);
  Pkt.set_u16 ph 10 (20 + Bytes.length t.payload);
  let csum = Pkt.checksum_iov (Pkt.Iov.slice ph :: iov) in
  let csum = if csum = 0 then 0xFFFF else csum in
  Pkt.set_u16 h 16 csum;
  iov

let decode_segment ~src_ip ~dst_ip b =
  if Bytes.length b < 20 then None
  else if pseudo_sum ~src_ip ~dst_ip b <> 0 then None
  else begin
    try
      let r = Pkt.R.of_bytes b in
      let src_port = Pkt.R.u16 r in
      let dst_port = Pkt.R.u16 r in
      let seq = Pkt.R.u32 r in
      let ack_n = Pkt.R.u32 r in
      let off = Pkt.R.u8 r lsr 4 * 4 in
      let flags = byte_flags (Pkt.R.u8 r) in
      let window = Pkt.R.u16 r in
      let _csum = Pkt.R.u16 r in
      let _urg = Pkt.R.u16 r in
      if off < 20 || off > Bytes.length b then None
      else
        Some
          {
            src_port;
            dst_port;
            seq;
            ack_n;
            flags;
            window;
            payload = Bytes.sub b off (Bytes.length b - off);
          }
    with Pkt.R.Truncated -> None
  end

type state =
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Last_ack
  | Time_wait
  | Closed

let pp_state ppf s =
  Format.pp_print_string ppf
    (match s with
    | Syn_sent -> "syn-sent"
    | Syn_received -> "syn-received"
    | Established -> "established"
    | Fin_wait_1 -> "fin-wait-1"
    | Fin_wait_2 -> "fin-wait-2"
    | Close_wait -> "close-wait"
    | Last_ack -> "last-ack"
    | Time_wait -> "time-wait"
    | Closed -> "closed")

let mss = 1000
let window_segments = 8
let rto_ticks = 3
let max_retransmits = 12
let time_wait_ticks = 6

type inflight = { iseq : int32; idata : bytes; ifin : bool }

type conn = {
  lport : int;
  rip : int32;
  rport : int;
  mutable st : state;
  mutable snd_una : int32; (* oldest unacknowledged *)
  mutable snd_nxt : int32;
  mutable rcv_nxt : int32;
  send_buf : Buffer.t;
  mutable inflight : inflight list; (* oldest first *)
  recv_buf : Buffer.t;
  mutable closing : bool; (* application called close *)
  mutable fin_queued : bool; (* our FIN occupies snd_nxt - 1 *)
  mutable idle_ticks : int;
  mutable retransmits : int;
}

let ( +^ ) a b = Int32.add a (Int32.of_int b)
let seq_lt a b = Int32.sub a b < 0l
let seq_le a b = Int32.sub a b <= 0l

let state c = c.st
let remote c = (c.rip, c.rport)
let local_port c = c.lport

let bytes_in_flight c =
  List.fold_left (fun n f -> n + Bytes.length f.idata) 0 c.inflight

let mk_conn ~local_port ~remote_ip ~remote_port ~isn st =
  {
    lport = local_port;
    rip = remote_ip;
    rport = remote_port;
    st;
    snd_una = isn;
    snd_nxt = isn;
    rcv_nxt = 0l;
    send_buf = Buffer.create 256;
    inflight = [];
    recv_buf = Buffer.create 256;
    closing = false;
    fin_queued = false;
    idle_ticks = 0;
    retransmits = 0;
  }

let seg c ?(payload = Bytes.empty) ?(fl = no_flags) seq =
  {
    src_port = c.lport;
    dst_port = c.rport;
    seq;
    ack_n = c.rcv_nxt;
    flags = { fl with ack = c.st <> Syn_sent };
    window = window_segments * mss;
    payload;
  }

let initiate ~local_port ~remote_ip ~remote_port ~isn =
  let c = mk_conn ~local_port ~remote_ip ~remote_port ~isn Syn_sent in
  c.snd_nxt <- isn +^ 1;
  let syn = { (seg c isn) with flags = { no_flags with syn = true } } in
  c.inflight <- [ { iseq = isn; idata = Bytes.empty; ifin = false } ];
  (c, syn)

let accept_syn ~local_port ~remote_ip ~remote_port ~isn ~peer_seq =
  let c = mk_conn ~local_port ~remote_ip ~remote_port ~isn Syn_received in
  c.rcv_nxt <- peer_seq +^ 1;
  c.snd_nxt <- isn +^ 1;
  let synack = { (seg c isn) with flags = { no_flags with syn = true; ack = true } } in
  c.inflight <- [ { iseq = isn; idata = Bytes.empty; ifin = false } ];
  (c, synack)

(* Pull queued data (and a pending FIN) into the window.  New inflight
   entries are accumulated newest-first and appended to the (oldest-first)
   queue once at the end — a per-segment [c.inflight <- c.inflight @ ...]
   would walk the whole queue for every segment, O(window²) per flush. *)
let flush_send c =
  let out = ref [] in
  let added = ref [] (* newest first *) in
  let queued = ref (List.length c.inflight) in
  let continue = ref true in
  while !continue do
    if Buffer.length c.send_buf > 0 && !queued < window_segments then begin
      let n = min mss (Buffer.length c.send_buf) in
      let data = Bytes.of_string (Buffer.sub c.send_buf 0 n) in
      let rest = Buffer.sub c.send_buf n (Buffer.length c.send_buf - n) in
      Buffer.clear c.send_buf;
      Buffer.add_string c.send_buf rest;
      let s = { (seg c ~payload:data c.snd_nxt) with flags = { no_flags with ack = true; psh = true } } in
      added := { iseq = c.snd_nxt; idata = data; ifin = false } :: !added;
      incr queued;
      c.snd_nxt <- c.snd_nxt +^ n;
      out := s :: !out
    end
    else continue := false
  done;
  (* Emit our FIN once all data is queued into segments. *)
  if
    c.closing && (not c.fin_queued)
    && Buffer.length c.send_buf = 0
    && !queued < window_segments
    && (c.st = Established || c.st = Close_wait)
  then begin
    let s = { (seg c c.snd_nxt) with flags = { no_flags with ack = true; fin = true } } in
    added := { iseq = c.snd_nxt; idata = Bytes.empty; ifin = true } :: !added;
    incr queued;
    c.snd_nxt <- c.snd_nxt +^ 1;
    c.fin_queued <- true;
    c.st <- (if c.st = Close_wait then Last_ack else Fin_wait_1);
    out := s :: !out
  end;
  if !added <> [] then c.inflight <- c.inflight @ List.rev !added;
  List.rev !out

let ack_advance c ack =
  if seq_lt c.snd_una ack && seq_le ack c.snd_nxt then begin
    c.snd_una <- ack;
    c.idle_ticks <- 0;
    c.retransmits <- 0;
    c.inflight <-
      List.filter
        (fun f ->
          let fin_len = if f.ifin then 1 else 0 in
          let seg_end = f.iseq +^ (Bytes.length f.idata + fin_len) in
          seq_lt ack seg_end)
        c.inflight
  end

let handle c (s : segment) =
  if c.st = Closed then []
  else if s.flags.rst then begin
    c.st <- Closed;
    []
  end
  else begin
    let out = ref [] in
    let emit x = out := x :: !out in
    (match c.st with
    | Syn_sent ->
        if s.flags.syn && s.flags.ack && s.ack_n = c.snd_nxt then begin
          c.rcv_nxt <- s.seq +^ 1;
          ack_advance c s.ack_n;
          c.st <- Established;
          emit (seg c c.snd_nxt) (* bare ACK *)
        end
    | Syn_received ->
        if s.flags.ack && s.ack_n = c.snd_nxt then begin
          ack_advance c s.ack_n;
          c.st <- Established
        end
    | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Last_ack
    | Time_wait | Closed -> (
        if s.flags.ack then ack_advance c s.ack_n;
        (* In-order data. *)
        let len = Bytes.length s.payload in
        let had_data = len > 0 in
        let in_order = s.seq = c.rcv_nxt in
        if had_data then begin
          if in_order && (c.st = Established || c.st = Fin_wait_1 || c.st = Fin_wait_2) then begin
            Buffer.add_bytes c.recv_buf s.payload;
            c.rcv_nxt <- c.rcv_nxt +^ len
          end;
          (* Always ack what we have (dup-ack on out-of-order). *)
          emit (seg c c.snd_nxt)
        end;
        (* Peer FIN, valid only when it lands in-order. *)
        if s.flags.fin && s.seq +^ len = c.rcv_nxt then begin
          c.rcv_nxt <- c.rcv_nxt +^ 1;
          emit (seg c c.snd_nxt);
          match c.st with
          | Established -> c.st <- Close_wait
          | Fin_wait_1 | Fin_wait_2 ->
              c.st <- Time_wait;
              c.idle_ticks <- 0
          | Syn_sent | Syn_received | Close_wait | Last_ack | Time_wait
          | Closed -> ()
        end;
        (* Our FIN acked? *)
        match c.st with
        | Fin_wait_1 when c.fin_queued && c.snd_una = c.snd_nxt ->
            c.st <- Fin_wait_2
        | Last_ack when c.fin_queued && c.snd_una = c.snd_nxt ->
            c.st <- Closed
        | Syn_sent | Syn_received | Established | Fin_wait_1 | Fin_wait_2
        | Close_wait | Last_ack | Time_wait | Closed -> ()));
    List.rev_append !out (flush_send c)
  end

let send c data =
  match c.st with
  | Established | Syn_received | Syn_sent ->
      Buffer.add_bytes c.send_buf data;
      if c.st = Established then flush_send c else []
  | Fin_wait_1 | Fin_wait_2 | Close_wait | Last_ack | Time_wait | Closed ->
      []

let close c =
  match c.st with
  | Established | Close_wait | Syn_received ->
      c.closing <- true;
      flush_send c
  | Syn_sent ->
      c.st <- Closed;
      []
  | Fin_wait_1 | Fin_wait_2 | Last_ack | Time_wait | Closed -> []

let abort c =
  if c.st = Closed then []
  else begin
    let rst = seg c ~fl:{ no_flags with rst = true } c.snd_nxt in
    c.st <- Closed;
    c.inflight <- [];
    [ rst ]
  end

let retransmit c =
  List.map
    (fun f ->
      let fl =
        if f.ifin then { no_flags with ack = true; fin = true }
        else if Bytes.length f.idata = 0 then
          (* the SYN / SYN-ACK *)
          if c.st = Syn_sent then { no_flags with syn = true }
          else { no_flags with syn = true; ack = true }
        else { no_flags with ack = true; psh = true }
      in
      { (seg c ~payload:f.idata f.iseq) with flags = fl })
    c.inflight

let tick c =
  match c.st with
  | Closed -> []
  | Time_wait ->
      c.idle_ticks <- c.idle_ticks + 1;
      if c.idle_ticks >= time_wait_ticks then c.st <- Closed;
      []
  | Syn_sent | Syn_received | Established | Fin_wait_1 | Fin_wait_2
  | Close_wait | Last_ack ->
      if c.inflight = [] then begin
        c.idle_ticks <- 0;
        []
      end
      else begin
        c.idle_ticks <- c.idle_ticks + 1;
        if c.idle_ticks >= rto_ticks then begin
          c.idle_ticks <- 0;
          c.retransmits <- c.retransmits + 1;
          if c.retransmits > max_retransmits then begin
            c.st <- Closed;
            []
          end
          else retransmit c
        end
        else []
      end

let recv c =
  let data = Buffer.to_bytes c.recv_buf in
  Buffer.clear c.recv_buf;
  data
