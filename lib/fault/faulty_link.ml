module Tcp = Bi_net.Tcp
module Nic = Bi_hw.Device.Nic
module Gen = Bi_core.Gen

type channel = {
  plan : Fault_plan.t;
  mutable queue : (int * bytes) list; (* (release round, frame), in order *)
  mutable round : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable corrupted : int;
}

let channel plan =
  { plan; queue = []; round = 0; sent = 0; delivered = 0; dropped = 0;
    corrupted = 0 }

let corrupt_frame frame pos bits =
  let b = Bytes.copy frame in
  if Bytes.length b > 0 then begin
    let pos = pos mod Bytes.length b in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (bits land 0xff)))
  end;
  b

let send ch frame =
  ch.sent <- ch.sent + 1;
  let enqueue ?(delay = 1) f = ch.queue <- ch.queue @ [ (ch.round + delay, f) ] in
  match Fault_plan.next ~len:(Bytes.length frame) ch.plan with
  | Pass -> enqueue frame
  | Drop -> ch.dropped <- ch.dropped + 1
  | Duplicate ->
      enqueue frame;
      enqueue (Bytes.copy frame)
  | Reorder -> (
      (* Jump the queue: this frame is released before the last one
         already in flight. *)
      match List.rev ch.queue with
      | [] -> enqueue frame
      | (lr, lf) :: before_rev ->
          ch.queue <-
            List.rev before_rev @ [ (ch.round + 1, frame); (lr, lf) ])
  | Corrupt { pos; bits } ->
      ch.corrupted <- ch.corrupted + 1;
      enqueue (corrupt_frame frame pos bits)
  | Stall n -> enqueue ~delay:(1 + n) frame

(* Advance one round; frames whose release round has come are delivered in
   queue order. *)
let step ch =
  ch.round <- ch.round + 1;
  let ready, later =
    List.partition (fun (r, _) -> r <= ch.round) ch.queue
  in
  ch.queue <- later;
  let frames = List.map snd ready in
  ch.delivered <- ch.delivered + List.length frames;
  frames

type stats = {
  rounds : int;
  ab_faults : int;
  ba_faults : int;
  delivered_ab : int;
  delivered_ba : int;
}

let ip_a = 0x0a000001l
let ip_b = 0x0a000002l
let port_a = 40000
let port_b = 80

(* Direct [Tcp.conn] harness: host A sends [payload] to host B across two
   faulty channels; B's connection is created on the first (uncorrupted)
   SYN.  Each round delivers released frames, routes replies back through
   the opposite channel, and ticks both connections so retransmission can
   repair whatever the plans break.  Returns B's received byte stream. *)
let run_transfer ?(decode = Tcp.decode_segment) ~plan_ab ~plan_ba ~payload
    ~rounds () =
  let ab = channel plan_ab and ba = channel plan_ba in
  let a, syn =
    Tcp.initiate ~local_port:port_a ~remote_ip:ip_b ~remote_port:port_b
      ~isn:100l
  in
  let b = ref None in
  let received = Buffer.create (Bytes.length payload) in
  let send_a seg = send ab (Tcp.encode_segment ~src_ip:ip_a ~dst_ip:ip_b seg) in
  let send_b seg = send ba (Tcp.encode_segment ~src_ip:ip_b ~dst_ip:ip_a seg) in
  send_a syn;
  (* Data queued in [Syn_sent] flows once the handshake completes. *)
  List.iter send_a (Tcp.send a payload);
  for _ = 1 to rounds do
    (* A -> B *)
    List.iter
      (fun frame ->
        match decode ~src_ip:ip_a ~dst_ip:ip_b frame with
        | None -> () (* checksum rejected a corrupted segment *)
        | Some seg -> (
            match !b with
            | None when seg.Tcp.flags.syn && not seg.Tcp.flags.ack ->
                let conn, synack =
                  Tcp.accept_syn ~local_port:port_b ~remote_ip:ip_a
                    ~remote_port:seg.Tcp.src_port ~isn:900l
                    ~peer_seq:seg.Tcp.seq
                in
                b := Some conn;
                send_b synack
            | None -> ()
            | Some conn -> List.iter send_b (Tcp.handle conn seg)))
      (step ab);
    (match !b with
    | Some conn -> Buffer.add_bytes received (Tcp.recv conn)
    | None -> ());
    (* B -> A *)
    List.iter
      (fun frame ->
        match decode ~src_ip:ip_b ~dst_ip:ip_a frame with
        | None -> ()
        | Some seg -> List.iter send_a (Tcp.handle a seg))
      (step ba);
    List.iter send_a (Tcp.tick a);
    match !b with
    | Some conn -> List.iter send_b (Tcp.tick conn)
    | None -> ()
  done;
  ( Buffer.contents received,
    {
      rounds;
      ab_faults = Fault_plan.faults plan_ab;
      ba_faults = Fault_plan.faults plan_ba;
      delivered_ab = ab.delivered;
      delivered_ba = ba.delivered;
    } )

(* NIC-level link: interpose on two NICs' wire queues instead of
   [Nic.connect], so whole stacks (ARP, IP, TCP) run over the faulty
   wire. *)
type link = { a : Nic.t; b : Nic.t; ab : channel; ba : channel }

let link ~plan_ab ~plan_ba a b =
  { a; b; ab = channel plan_ab; ba = channel plan_ba }

let step_link l =
  let rec drain nic ch =
    match Nic.take_tx nic with
    | None -> ()
    | Some frame ->
        send ch frame;
        drain nic ch
  in
  drain l.a l.ab;
  drain l.b l.ba;
  let out_ab = step l.ab and out_ba = step l.ba in
  List.iter (Nic.inject_rx l.b) out_ab;
  List.iter (Nic.inject_rx l.a) out_ba;
  List.length out_ab + List.length out_ba
