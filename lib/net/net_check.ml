module Vc = Bi_core.Vc
module Gen = Bi_core.Gen
module Nic = Bi_hw.Device.Nic

let ip_a = Ip.addr_of_string "10.0.0.1"
let ip_b = Ip.addr_of_string "10.0.0.2"

let host_pair () =
  let nic_a = Nic.create ~mac:"\x02\x00\x00\x00\x00\x0a" () in
  let nic_b = Nic.create ~mac:"\x02\x00\x00\x00\x00\x0b" () in
  Nic.connect nic_a nic_b;
  let a = Stack.create ~nic:nic_a ~ip:ip_a in
  let b = Stack.create ~nic:nic_b ~ip:ip_b in
  (a, b, nic_a, nic_b)

(* ------------------------------------------------------------------ *)
(* Codec round-trips                                                   *)

let sample_payload g = Bytes.init (Gen.int g 64) (fun _ -> Char.chr (Gen.int g 256))

let codec_vcs () =
  [
    Vc.prop ~id:"net/codec/eth-roundtrip" ~category:"net/codec"
      (Vc.forall_sampled ~id:"eth-rt" ~n:64
         (fun g ->
           {
             Eth.dst = String.init 6 (fun _ -> Char.chr (Gen.int g 256));
             src = String.init 6 (fun _ -> Char.chr (Gen.int g 256));
             ethertype = Gen.int g 0x10000;
             payload = sample_payload g;
           })
         (fun f -> Eth.decode (Eth.encode f) = Some f));
    Vc.prop ~id:"net/codec/arp-roundtrip" ~category:"net/codec"
      (Vc.forall_sampled ~id:"arp-rt" ~n:64
         (fun g ->
           {
             Arp.op = (if Gen.bool g then Arp.Request else Arp.Reply);
             sender_mac = String.init 6 (fun _ -> Char.chr (Gen.int g 256));
             sender_ip = Int32.of_int (Gen.int g 0x40000000);
             target_mac = String.init 6 (fun _ -> Char.chr (Gen.int g 256));
             target_ip = Int32.of_int (Gen.int g 0x40000000);
           })
         (fun p -> Arp.decode (Arp.encode p) = Some p));
    Vc.prop ~id:"net/codec/ip-roundtrip" ~category:"net/codec"
      (Vc.forall_sampled ~id:"ip-rt" ~n:64
         (fun g ->
           {
             Ip.src = Int32.of_int (Gen.int g 0x40000000);
             dst = Int32.of_int (Gen.int g 0x40000000);
             proto = Gen.oneof g [ Ip.proto_udp; Ip.proto_tcp ];
             ttl = 1 + Gen.int g 255;
             payload = sample_payload g;
           })
         (fun p -> Ip.decode (Ip.encode p) = Some p));
    Vc.prop ~id:"net/codec/udp-roundtrip" ~category:"net/codec"
      (Vc.forall_sampled ~id:"udp-rt" ~n:64
         (fun g ->
           {
             Udp.src_port = Gen.int g 0x10000;
             dst_port = Gen.int g 0x10000;
             payload = sample_payload g;
           })
         (fun u ->
           Udp.decode ~src_ip:ip_a ~dst_ip:ip_b
             (Udp.encode ~src_ip:ip_a ~dst_ip:ip_b u)
           = Some u));
    Vc.prop ~id:"net/codec/tcp-roundtrip" ~category:"net/codec"
      (Vc.forall_sampled ~id:"tcp-rt" ~n:64
         (fun g ->
           {
             Tcp.src_port = Gen.int g 0x10000;
             dst_port = Gen.int g 0x10000;
             seq = Int32.of_int (Gen.int g 0x40000000);
             ack_n = Int32.of_int (Gen.int g 0x40000000);
             flags =
               {
                 Tcp.syn = Gen.bool g;
                 ack = Gen.bool g;
                 fin = Gen.bool g;
                 rst = Gen.bool g;
                 psh = Gen.bool g;
               };
             window = Gen.int g 0x10000;
             payload = sample_payload g;
           })
         (fun s ->
           Tcp.decode_segment ~src_ip:ip_a ~dst_ip:ip_b
             (Tcp.encode_segment ~src_ip:ip_a ~dst_ip:ip_b s)
           = Some s));
    Vc.prop ~id:"net/codec/ip-addr-roundtrip" ~category:"net/codec"
      (Vc.forall_sampled ~id:"ipaddr-rt" ~n:128
         (fun g -> Int32.of_int (Gen.int g 0x40000000))
         (fun a -> Ip.addr_of_string (Ip.string_of_addr a) = a));
    Vc.prop ~id:"net/codec/checksum-detects-corruption" ~category:"net/codec"
      (Vc.forall_sampled ~id:"csum-corrupt" ~n:64
         (fun g ->
           let payload = Bytes.init (8 + Gen.int g 32) (fun _ -> Char.chr (Gen.int g 256)) in
           let flip = Gen.int g (Bytes.length payload + 20) in
           let bit = Gen.int g 8 in
           (payload, flip, bit))
         (fun (payload, flip, bit) ->
           let p =
             Ip.encode
               { Ip.src = ip_a; dst = ip_b; proto = Ip.proto_udp; ttl = 4; payload }
           in
           if flip >= 20 then true (* only header is checksummed by IP *)
           else begin
             let c = Char.code (Bytes.get p flip) in
             Bytes.set p flip (Char.chr (c lxor (1 lsl bit)));
             Ip.decode p = None
           end));
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end behaviours                                               *)

let udp_vcs () =
  [
    Vc.prop ~id:"net/udp/roundtrip-with-arp" ~category:"net/e2e" (fun () ->
        let a, b, _, _ = host_pair () in
        Stack.udp_bind b 7;
        Stack.udp_bind a 9;
        Stack.udp_send a ~dst_ip:ip_b ~dst_port:7 ~src_port:9
          (Bytes.of_string "ping");
        Stack.pump [ a; b ];
        (match Stack.udp_recv b 7 with
        | Some (src, 9, payload) ->
            src = ip_a && Bytes.to_string payload = "ping"
        | Some _ | None -> false)
        && Stack.arp_cache_size a >= 1);
    Vc.prop ~id:"net/udp/unbound-port-drops" ~category:"net/e2e" (fun () ->
        let a, b, _, _ = host_pair () in
        Stack.udp_send a ~dst_ip:ip_b ~dst_port:99 ~src_port:1
          (Bytes.of_string "x");
        Stack.pump [ a; b ];
        Stack.udp_recv b 99 = None);
    Vc.prop ~id:"net/udp/bidirectional" ~category:"net/e2e" (fun () ->
        let a, b, _, _ = host_pair () in
        Stack.udp_bind a 5;
        Stack.udp_bind b 6;
        Stack.udp_send a ~dst_ip:ip_b ~dst_port:6 ~src_port:5
          (Bytes.of_string "hello");
        Stack.pump [ a; b ];
        (match Stack.udp_recv b 6 with
        | Some (_, _, p) when Bytes.to_string p = "hello" ->
            Stack.udp_send b ~dst_ip:ip_a ~dst_port:5 ~src_port:6
              (Bytes.of_string "world");
            Stack.pump [ a; b ];
            (match Stack.udp_recv a 5 with
            | Some (_, _, q) -> Bytes.to_string q = "world"
            | None -> false)
        | Some _ | None -> false));
  ]

let tcp_establish () =
  let a, b, nic_a, nic_b = host_pair () in
  Stack.tcp_listen b 80;
  let ca = Stack.tcp_connect a ~dst_ip:ip_b ~dst_port:80 in
  Stack.pump [ a; b ];
  let cb = Stack.tcp_accept b 80 in
  (a, b, ca, cb, nic_a, nic_b)

let tcp_vcs () =
  [
    Vc.prop ~id:"net/tcp/handshake" ~category:"net/e2e" (fun () ->
        let a, _, ca, cb, _, _ = tcp_establish () in
        match cb with
        | Some _ -> Stack.tcp_state a ca = Tcp.Established
        | None -> false);
    Vc.prop ~id:"net/tcp/transfer" ~category:"net/e2e" (fun () ->
        let a, b, ca, cb, _, _ = tcp_establish () in
        match cb with
        | None -> false
        | Some cb ->
            let msg = String.init 5000 (fun i -> Char.chr (65 + (i mod 26))) in
            Stack.tcp_send a ca (Bytes.of_string msg);
            Stack.pump_ticks ~rounds:32 [ a; b ];
            Bytes.to_string (Stack.tcp_recv b cb) = msg);
    Vc.prop ~id:"net/tcp/transfer-under-loss" ~category:"net/e2e" (fun () ->
        let a, b, ca, cb, nic_a, nic_b = tcp_establish () in
        match cb with
        | None -> false
        | Some cb ->
            let msg = String.init 8000 (fun i -> Char.chr (97 + (i mod 26))) in
            (* Drop several frames in both directions mid-transfer. *)
            Nic.drop_next_tx nic_a;
            Stack.tcp_send a ca (Bytes.of_string msg);
            Nic.drop_next_tx nic_b;
            Stack.pump_ticks ~rounds:8 [ a; b ];
            Nic.drop_next_tx nic_a;
            Stack.pump_ticks ~rounds:100 [ a; b ];
            Bytes.to_string (Stack.tcp_recv b cb) = msg);
    Vc.prop ~id:"net/tcp/bidirectional" ~category:"net/e2e" (fun () ->
        let a, b, ca, cb, _, _ = tcp_establish () in
        match cb with
        | None -> false
        | Some cb ->
            Stack.tcp_send a ca (Bytes.of_string "request");
            Stack.pump_ticks ~rounds:16 [ a; b ];
            let got = Bytes.to_string (Stack.tcp_recv b cb) in
            Stack.tcp_send b cb (Bytes.of_string ("re:" ^ got));
            Stack.pump_ticks ~rounds:16 [ a; b ];
            Bytes.to_string (Stack.tcp_recv a ca) = "re:request");
    Vc.prop ~id:"net/tcp/orderly-close" ~category:"net/e2e" (fun () ->
        let a, b, ca, cb, _, _ = tcp_establish () in
        match cb with
        | None -> false
        | Some cb ->
            Stack.tcp_close a ca;
            Stack.pump_ticks ~rounds:16 [ a; b ];
            Stack.tcp_close b cb;
            Stack.pump_ticks ~rounds:16 [ a; b ];
            (* A connection closed locally is dropped once it reaches
               [Closed], and then its id names nothing. *)
            let state s c =
              match Stack.tcp_state s c with
              | st -> st
              | exception Invalid_argument _ -> Tcp.Closed
            in
            state b cb = Tcp.Closed
            && (match state a ca with
               | Tcp.Time_wait | Tcp.Closed -> true
               | _ -> false));
    Vc.prop ~id:"net/tcp/data-after-close-discarded" ~category:"net/e2e"
      (fun () ->
        let a, b, ca, cb, _, _ = tcp_establish () in
        match cb with
        | None -> false
        | Some _ ->
            Stack.tcp_close a ca;
            Stack.pump_ticks ~rounds:16 [ a; b ];
            Stack.tcp_send a ca (Bytes.of_string "late");
            Stack.pump_ticks ~rounds:8 [ a; b ];
            true);
    Vc.prop ~id:"net/tcp/retransmission-count-bounded" ~category:"net/e2e"
      (fun () ->
        (* A peer that vanishes: connection must give up and close. *)
        let a, _, ca, _, nic_a, _ = tcp_establish () in
        for _ = 1 to 200 do
          Nic.drop_next_tx nic_a;
          Stack.tick a;
          ignore (Nic.deliver nic_a)
        done;
        Stack.tcp_send a ca (Bytes.of_string "void");
        for _ = 1 to 200 do
          Nic.drop_next_tx nic_a;
          Stack.tick a;
          ignore (Nic.deliver nic_a)
        done;
        Stack.tcp_state a ca = Tcp.Closed);
  ]

let vcs () = codec_vcs () @ udp_vcs () @ tcp_vcs ()
