module Nic = Bi_hw.Device.Nic

type conn_id = int

type conn_entry = {
  conn : Tcp.conn;
  mutable accepted : bool;
  mutable closed : bool; (* closed locally: dropped once TCP is Closed *)
}

type t = {
  nic : Nic.t;
  ip_addr : int32;
  arp : Arp.Cache.cache;
  mutable arp_waiting : (int32 * Pkt.Iov.t) list; (* IP packets awaiting MAC *)
  udp_ports : (int, (int32 * int * bytes) Queue.t) Hashtbl.t;
  tcp_listening : (int, unit) Hashtbl.t;
  tcp_conns : (conn_id, conn_entry) Hashtbl.t;
  mutable next_conn : conn_id;
  mutable next_isn : int32;
  mutable next_eph : int;
}

let create ~nic ~ip =
  {
    nic;
    ip_addr = ip;
    arp = Arp.Cache.create ();
    arp_waiting = [];
    udp_ports = Hashtbl.create 8;
    tcp_listening = Hashtbl.create 4;
    tcp_conns = Hashtbl.create 8;
    next_conn = 1;
    next_isn = 1000l;
    next_eph = 49152;
  }

let ip t = t.ip_addr
let mac t = Nic.mac t.nic

(* The whole TX path is vectored: each layer prepends a header slice and
   the frame is materialized exactly once, here, at the NIC boundary. *)
let send_frame t ~dst_mac ~ethertype payload =
  Nic.transmit t.nic
    (Pkt.Iov.materialize
       (Eth.frame_iov ~dst:dst_mac ~src:(mac t) ~ethertype payload))

let send_arp_request t target_ip =
  let pkt =
    Arp.encode
      {
        Arp.op = Arp.Request;
        sender_mac = mac t;
        sender_ip = t.ip_addr;
        target_mac = "\000\000\000\000\000\000";
        target_ip;
      }
  in
  send_frame t ~dst_mac:Eth.broadcast ~ethertype:Eth.ethertype_arp
    (Pkt.Iov.of_bytes pkt)

(* Send an IP payload, queueing behind ARP if the neighbour is unknown. *)
let send_ip t ~dst_ip ~proto payload =
  let packet =
    Ip.packet_iov ~src:t.ip_addr ~dst:dst_ip ~proto ~ttl:64 payload
  in
  match Arp.Cache.find t.arp dst_ip with
  | Some dst_mac -> send_frame t ~dst_mac ~ethertype:Eth.ethertype_ipv4 packet
  | None ->
      t.arp_waiting <- (dst_ip, packet) :: t.arp_waiting;
      send_arp_request t dst_ip

let flush_arp_waiting t resolved_ip dst_mac =
  let ready, still =
    List.partition (fun (ip, _) -> ip = resolved_ip) t.arp_waiting
  in
  t.arp_waiting <- still;
  List.iter
    (fun (_, packet) ->
      send_frame t ~dst_mac ~ethertype:Eth.ethertype_ipv4 packet)
    (List.rev ready)

(* ------------------------------------------------------------------ *)
(* TCP plumbing                                                        *)

let fresh_isn t =
  let isn = t.next_isn in
  t.next_isn <- Int32.add isn 64000l;
  isn

let conn_send_all t conn segs =
  let rip, _ = Tcp.remote conn in
  List.iter
    (fun s ->
      send_ip t ~dst_ip:rip ~proto:Ip.proto_tcp
        (Tcp.encode_segment_iov ~src_ip:t.ip_addr ~dst_ip:rip s))
    segs

let find_conn t ~rip ~rport ~lport =
  let found = ref None in
  Hashtbl.iter
    (fun id entry ->
      let crip, crport = Tcp.remote entry.conn in
      if crip = rip && crport = rport && Tcp.local_port entry.conn = lport
      then found := Some (id, entry))
    t.tcp_conns;
  !found

(* Reset the sender of [seg], which matches no connection here. *)
let send_rst t ~dst_ip (seg : Tcp.segment) =
  let rst =
    {
      Tcp.src_port = seg.Tcp.dst_port;
      dst_port = seg.Tcp.src_port;
      seq = seg.Tcp.ack_n;
      ack_n = 0l;
      flags =
        { Tcp.syn = false; ack = false; fin = false; rst = true; psh = false };
      window = 0;
      payload = Bytes.empty;
    }
  in
  send_ip t ~dst_ip ~proto:Ip.proto_tcp
    (Tcp.encode_segment_iov ~src_ip:t.ip_addr ~dst_ip rst)

let handle_tcp t ~src_ip segment_bytes =
  match
    Tcp.decode_segment ~src_ip ~dst_ip:t.ip_addr segment_bytes
  with
  | None -> ()
  | Some seg -> (
      match
        find_conn t ~rip:src_ip ~rport:seg.Tcp.src_port ~lport:seg.Tcp.dst_port
      with
      | Some (_, entry) ->
          conn_send_all t entry.conn (Tcp.handle entry.conn seg)
      | None ->
          if seg.Tcp.flags.Tcp.syn && (not seg.Tcp.flags.Tcp.ack)
             && Hashtbl.mem t.tcp_listening seg.Tcp.dst_port
          then begin
            let conn, synack =
              Tcp.accept_syn ~local_port:seg.Tcp.dst_port ~remote_ip:src_ip
                ~remote_port:seg.Tcp.src_port ~isn:(fresh_isn t)
                ~peer_seq:seg.Tcp.seq
            in
            let id = t.next_conn in
            t.next_conn <- id + 1;
            Hashtbl.replace t.tcp_conns id
              { conn; accepted = false; closed = false };
            conn_send_all t conn [ synack ]
          end
          else if seg.Tcp.flags.Tcp.syn && seg.Tcp.flags.Tcp.ack then
            (* A SYN-ACK for a connect abandoned in [Syn_sent]: the reset
               ends the peer's half-open connection now, not after its
               last SYN-ACK retransmission. *)
            send_rst t ~dst_ip:src_ip seg)

let handle_udp t ~src_ip segment_bytes =
  match Udp.decode ~src_ip ~dst_ip:t.ip_addr segment_bytes with
  | None -> ()
  | Some { Udp.src_port; dst_port; payload } -> (
      match Hashtbl.find_opt t.udp_ports dst_port with
      | None -> ()
      | Some q -> Queue.push (src_ip, src_port, payload) q)

let handle_arp t payload =
  match Arp.decode payload with
  | None -> ()
  | Some a -> (
      Arp.Cache.add t.arp a.Arp.sender_ip a.Arp.sender_mac;
      flush_arp_waiting t a.Arp.sender_ip a.Arp.sender_mac;
      match a.Arp.op with
      | Arp.Request when a.Arp.target_ip = t.ip_addr ->
          let reply =
            Arp.encode
              {
                Arp.op = Arp.Reply;
                sender_mac = mac t;
                sender_ip = t.ip_addr;
                target_mac = a.Arp.sender_mac;
                target_ip = a.Arp.sender_ip;
              }
          in
          send_frame t ~dst_mac:a.Arp.sender_mac ~ethertype:Eth.ethertype_arp
            (Pkt.Iov.of_bytes reply)
      | Arp.Request | Arp.Reply -> ())

let handle_frame t frame =
  match Eth.decode frame with
  | None -> ()
  | Some { Eth.dst; ethertype; payload; _ } ->
      if dst = mac t || dst = Eth.broadcast then begin
        if ethertype = Eth.ethertype_arp then handle_arp t payload
        else if ethertype = Eth.ethertype_ipv4 then begin
          match Ip.decode payload with
          | None -> ()
          | Some { Ip.src; dst = ip_dst; proto; payload = ip_payload; _ } ->
              if ip_dst = t.ip_addr then begin
                if proto = Ip.proto_udp then
                  handle_udp t ~src_ip:src ip_payload
                else if proto = Ip.proto_tcp then
                  handle_tcp t ~src_ip:src ip_payload
              end
        end
      end

let poll t =
  let rec drain () =
    match Nic.receive t.nic with
    | None -> ()
    | Some frame ->
        handle_frame t frame;
        drain ()
  in
  drain ()

(* A connection leaves the table once TCP reaches [Closed] if it was
   closed locally or never accepted (a reset or the retransmission limit
   ended it before [tcp_accept] handed out its id); its id then names
   nothing. *)
let tick t =
  Hashtbl.filter_map_inplace
    (fun _ entry ->
      conn_send_all t entry.conn (Tcp.tick entry.conn);
      if
        Tcp.state entry.conn = Tcp.Closed
        && (entry.closed || not entry.accepted)
      then None
      else Some entry)
    t.tcp_conns

(* ------------------------------------------------------------------ *)
(* UDP API                                                             *)

let udp_bind t port =
  if Hashtbl.mem t.udp_ports port then
    invalid_arg "Stack.udp_bind: port already bound";
  Hashtbl.replace t.udp_ports port (Queue.create ())

let udp_is_bound t port = Hashtbl.mem t.udp_ports port

let udp_send t ~dst_ip ~dst_port ~src_port payload =
  send_ip t ~dst_ip ~proto:Ip.proto_udp
    (Udp.datagram_iov ~src_ip:t.ip_addr ~dst_ip ~src_port ~dst_port
       (Pkt.Iov.of_bytes payload))

let udp_recv t port =
  match Hashtbl.find_opt t.udp_ports port with
  | None -> None
  | Some q -> Queue.take_opt q

(* ------------------------------------------------------------------ *)
(* TCP API                                                             *)

let tcp_listen t port = Hashtbl.replace t.tcp_listening port ()

(* As Linux does for a closed listener's accept queue, the connections
   no one accepted are reset, so a later listener on the port cannot
   accept them and their clients see end of stream. *)
let tcp_unlisten t port =
  Hashtbl.remove t.tcp_listening port;
  Hashtbl.filter_map_inplace
    (fun _ entry ->
      if (not entry.accepted) && Tcp.local_port entry.conn = port then begin
        conn_send_all t entry.conn (Tcp.abort entry.conn);
        None
      end
      else Some entry)
    t.tcp_conns

let tcp_is_listening t port = Hashtbl.mem t.tcp_listening port

let tcp_connect t ~dst_ip ~dst_port =
  let local_port = t.next_eph in
  t.next_eph <- t.next_eph + 1;
  let conn, syn =
    Tcp.initiate ~local_port ~remote_ip:dst_ip ~remote_port:dst_port
      ~isn:(fresh_isn t)
  in
  let id = t.next_conn in
  t.next_conn <- id + 1;
  Hashtbl.replace t.tcp_conns id { conn; accepted = true; closed = false };
  conn_send_all t conn [ syn ];
  id

let tcp_accept t port =
  let found = ref None in
  Hashtbl.iter
    (fun id entry ->
      if
        !found = None && (not entry.accepted)
        && Tcp.local_port entry.conn = port
        && Tcp.state entry.conn = Tcp.Established
      then found := Some (id, entry))
    t.tcp_conns;
  match !found with
  | None -> None
  | Some (id, entry) ->
      entry.accepted <- true;
      Some id

let get_conn t id =
  match Hashtbl.find_opt t.tcp_conns id with
  | None -> invalid_arg "Stack: unknown connection"
  | Some e -> e

let tcp_send t id data = conn_send_all t (get_conn t id).conn (Tcp.send (get_conn t id).conn data)
let tcp_recv t id = Tcp.recv (get_conn t id).conn
let tcp_close t id =
  let e = get_conn t id in
  e.closed <- true;
  conn_send_all t e.conn (Tcp.close e.conn);
  if Tcp.state e.conn = Tcp.Closed then Hashtbl.remove t.tcp_conns id
let tcp_state t id = Tcp.state (get_conn t id).conn

let tcp_conn_count t = Hashtbl.length t.tcp_conns
let arp_cache_size t = Arp.Cache.size t.arp

(* ------------------------------------------------------------------ *)
(* Pump                                                                *)

let pump ?(rounds = 64) hosts =
  let rec go n =
    if n = 0 then ()
    else begin
      let moved =
        List.fold_left (fun acc h -> acc + Nic.deliver h.nic) 0 hosts
      in
      List.iter poll hosts;
      if moved > 0 then go (n - 1)
    end
  in
  go rounds

let pump_ticks ?(rounds = 64) hosts =
  for _ = 1 to rounds do
    ignore (List.fold_left (fun acc h -> acc + Nic.deliver h.nic) 0 hosts);
    List.iter poll hosts;
    List.iter tick hosts
  done
