(* Network-stack tests: the e2e VC suite plus unit tests of each protocol
   layer, including adversarial cases (corruption, out-of-order delivery,
   loss) the VCs do not enumerate. *)

module Nic = Bi_hw.Device.Nic
module Pkt = Bi_net.Pkt
module Eth = Bi_net.Eth
module Arp = Bi_net.Arp
module Ip = Bi_net.Ip
module Udp = Bi_net.Udp
module Tcp = Bi_net.Tcp
module Stack = Bi_net.Stack

let check = Alcotest.check

let qtest name count gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let ip_a = Ip.addr_of_string "10.0.0.1"
let ip_b = Ip.addr_of_string "10.0.0.2"

let vc_cases () =
  List.map
    (fun (vc : Bi_core.Vc.t) ->
      Alcotest.test_case vc.Bi_core.Vc.id `Quick (fun () ->
          match Bi_core.Vc.catch vc.Bi_core.Vc.check with
          | Bi_core.Vc.Proved -> ()
          | (Bi_core.Vc.Falsified _ | Bi_core.Vc.Timeout _ | Bi_core.Vc.Capped _) as o ->
              Alcotest.failf "%a" Bi_core.Vc.pp_outcome o))
    (Bi_net.Net_check.vcs ())

(* ------------------------------------------------------------------ *)
(* Pkt *)

let test_pkt_rw_roundtrip () =
  let w = Pkt.W.create () in
  Pkt.W.u8 w 0xAB;
  Pkt.W.u16 w 0x1234;
  Pkt.W.u32 w 0xDEADBEEFl;
  Pkt.W.string w "xyz";
  let r = Pkt.R.of_bytes (Pkt.W.contents w) in
  check Alcotest.int "u8" 0xAB (Pkt.R.u8 r);
  check Alcotest.int "u16" 0x1234 (Pkt.R.u16 r);
  check Alcotest.int32 "u32" 0xDEADBEEFl (Pkt.R.u32 r);
  check Alcotest.string "rest" "xyz" (Bytes.to_string (Pkt.R.rest r))

let test_pkt_truncation () =
  let r = Pkt.R.of_bytes (Bytes.make 1 'x') in
  ignore (Pkt.R.u8 r);
  match Pkt.R.u16 r with
  | exception Pkt.R.Truncated -> ()
  | _ -> Alcotest.fail "Truncated expected"

(* The copy counters belong to the domain that copies: a copy made on
   another domain (a parallel VC) must not move this domain's reading. *)
let test_copy_counters_domain_local () =
  Pkt.reset_copy_stats ();
  Pkt.W.string (Pkt.W.create ()) "mine";
  let other =
    Domain.join
      (Domain.spawn (fun () ->
           Pkt.W.string (Pkt.W.create ()) (String.make 100 'x');
           (Pkt.copied_bytes (), Pkt.copies ())))
  in
  check Alcotest.(pair int int) "spawned domain counts its own" (100, 1) other;
  check Alcotest.(pair int int) "caller's counters unmoved" (4, 1)
    (Pkt.copied_bytes (), Pkt.copies ())

let test_checksum_rfc1071_example () =
  (* Classic example: 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 -> checksum 0x220d *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check Alcotest.int "known vector" 0x220d (Pkt.checksum b ~off:0 ~len:8)

let test_checksum_odd_length () =
  let b = Bytes.of_string "\x01\x02\x03" in
  (* 0x0102 + 0x0300 = 0x0402; complement = 0xfbfd *)
  check Alcotest.int "odd tail padded" 0xFBFD (Pkt.checksum b ~off:0 ~len:3)

(* The word-at-a-time checksum against the byte-at-a-time definition of
   RFC 1071, on random buffers, offsets and (often odd) lengths. *)
let checksum_bytewise data ~off ~len =
  let sum = ref 0 in
  for i = 0 to len - 1 do
    let b = Char.code (Bytes.get data (off + i)) in
    sum := !sum + if i land 1 = 0 then b lsl 8 else b
  done;
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

let test_checksum_matches_bytewise () =
  let g = Bi_core.Gen.create 1071L in
  for _ = 1 to 2000 do
    let n = Bi_core.Gen.int g 300 in
    let data = Bytes.init n (fun _ -> Char.chr (Bi_core.Gen.int g 256)) in
    let off = if n = 0 then 0 else Bi_core.Gen.int g n in
    let len = Bi_core.Gen.int g (n - off + 1) in
    check Alcotest.int
      (Printf.sprintf "off %d len %d" off len)
      (checksum_bytewise data ~off ~len)
      (Pkt.checksum data ~off ~len)
  done

(* The word writers and readers lay out the same big-endian bytes as
   shifting the value out a byte at a time. *)
let test_word_codecs_match_bytewise () =
  let g = Bi_core.Gen.create 16L in
  for _ = 1 to 500 do
    let v = Bi_core.Gen.next64 g in
    let be n =
      String.init n (fun i ->
          let shift = 8 * (n - 1 - i) in
          Char.chr (Int64.to_int (Int64.shift_right_logical v shift) land 0xFF))
    in
    let w = Pkt.W.create () in
    Pkt.W.u16 w (Int64.to_int v);
    Pkt.W.u32 w (Int64.to_int32 v);
    Pkt.W.i64 w v;
    let out = Pkt.W.contents w in
    check Alcotest.string "bytes" (be 2 ^ be 4 ^ be 8) (Bytes.to_string out);
    let r = Pkt.R.of_bytes out in
    check Alcotest.int "u16" (Int64.to_int v land 0xFFFF) (Pkt.R.u16 r);
    check Alcotest.int32 "u32" (Int64.to_int32 v) (Pkt.R.u32 r);
    check Alcotest.int64 "i64" v (Pkt.R.i64 r)
  done

let prop_checksum_self_verifies =
  (* The inserted checksum field must be 16-bit aligned, as it is in every
     real header, so quantify over even-length payloads. *)
  qtest "appending the checksum makes the sum verify" 200
    QCheck2.Gen.(
      string_size ~gen:(char_range '\000' '\255')
        (map (fun n -> 2 * n) (int_range 1 20)))
    (fun s ->
      let b = Bytes.of_string (s ^ "\x00\x00") in
      let len = Bytes.length b in
      let c = Pkt.checksum b ~off:0 ~len in
      Bytes.set b (len - 2) (Char.chr (c lsr 8));
      Bytes.set b (len - 1) (Char.chr (c land 0xFF));
      Pkt.checksum_valid b ~off:0 ~len)

(* ------------------------------------------------------------------ *)
(* Layer units *)

let test_eth_broadcast_constant () =
  check Alcotest.int "6 bytes" 6 (String.length Eth.broadcast);
  check Alcotest.bool "all ff" true
    (String.for_all (fun c -> c = '\xff') Eth.broadcast)

let test_ip_addr_notation () =
  check Alcotest.string "roundtrip" "192.168.1.42"
    (Ip.string_of_addr (Ip.addr_of_string "192.168.1.42"));
  (match Ip.addr_of_string "300.1.1.1" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "octet range");
  match Ip.addr_of_string "1.2.3" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "component count"

let test_ip_ttl_proto_preserved () =
  let p = { Ip.src = ip_a; dst = ip_b; proto = 99; ttl = 7; payload = Bytes.of_string "q" } in
  match Ip.decode (Ip.encode p) with
  | Some d ->
      check Alcotest.int "proto" 99 d.Ip.proto;
      check Alcotest.int "ttl" 7 d.Ip.ttl
  | None -> Alcotest.fail "decode"

let test_udp_bad_checksum_dropped () =
  let u = { Udp.src_port = 1; dst_port = 2; payload = Bytes.of_string "data" } in
  let seg = Udp.encode ~src_ip:ip_a ~dst_ip:ip_b u in
  Bytes.set seg 9 (Char.chr (Char.code (Bytes.get seg 9) lxor 0x40));
  check Alcotest.bool "corrupted payload rejected" true
    (Udp.decode ~src_ip:ip_a ~dst_ip:ip_b seg = None)

let test_udp_wrong_pseudo_header () =
  (* Same bytes but claimed to be from a different source IP: checksum
     must fail (the pseudo-header binds addresses). *)
  let u = { Udp.src_port = 1; dst_port = 2; payload = Bytes.of_string "data" } in
  let seg = Udp.encode ~src_ip:ip_a ~dst_ip:ip_b u in
  check Alcotest.bool "pseudo-header mismatch rejected" true
    (Udp.decode ~src_ip:(Ip.addr_of_string "10.0.0.9") ~dst_ip:ip_b seg = None)

let test_arp_cache_eviction () =
  let c = Arp.Cache.create ~capacity:2 () in
  Arp.Cache.add c 1l "\x00\x00\x00\x00\x00\x01";
  Arp.Cache.add c 2l "\x00\x00\x00\x00\x00\x02";
  Arp.Cache.add c 3l "\x00\x00\x00\x00\x00\x03";
  check Alcotest.int "capacity" 2 (Arp.Cache.size c);
  check Alcotest.bool "oldest evicted" true (Arp.Cache.find c 1l = None);
  check Alcotest.bool "newest present" true (Arp.Cache.find c 3l <> None)

(* ------------------------------------------------------------------ *)
(* TCP state machine details *)

let establish () =
  let ca, syn =
    Tcp.initiate ~local_port:1000 ~remote_ip:ip_b ~remote_port:80 ~isn:100l
  in
  let cb, synack =
    Tcp.accept_syn ~local_port:80 ~remote_ip:ip_a ~remote_port:1000 ~isn:500l
      ~peer_seq:syn.Tcp.seq
  in
  let acks = Tcp.handle ca synack in
  List.iter (fun s -> ignore (Tcp.handle cb s)) acks;
  (ca, cb)

let test_tcp_handshake_states () =
  let ca, cb = establish () in
  check Alcotest.bool "client established" true (Tcp.state ca = Tcp.Established);
  check Alcotest.bool "server established" true (Tcp.state cb = Tcp.Established)

let test_tcp_out_of_order_dropped () =
  let ca, cb = establish () in
  let segs = Tcp.send ca (Bytes.of_string (String.make 2500 'd')) in
  (* Deliver only the second segment: receiver must dup-ack, not absorb. *)
  (match segs with
  | _ :: s2 :: _ ->
      let replies = Tcp.handle cb s2 in
      check Alcotest.bool "receiver buffered nothing" true
        (Bytes.length (Tcp.recv cb) = 0);
      check Alcotest.bool "dup-ack sent" true (replies <> [])
  | _ -> Alcotest.fail "expected multiple segments");
  (* Now deliver in order; stream completes. *)
  List.iter (fun s -> ignore (Tcp.handle cb s)) segs;
  check Alcotest.int "full stream after in-order delivery" 2500
    (Bytes.length (Tcp.recv cb))

let test_tcp_retransmit_after_silence () =
  let ca, _cb = establish () in
  ignore (Tcp.send ca (Bytes.of_string "payload"));
  check Alcotest.int "in flight" 7 (Tcp.bytes_in_flight ca);
  let rec tick_until_rtx n =
    if n = 0 then []
    else begin
      match Tcp.tick ca with [] -> tick_until_rtx (n - 1) | segs -> segs
    end
  in
  let rtx = tick_until_rtx 10 in
  check Alcotest.bool "retransmission emitted" true (rtx <> []);
  check Alcotest.bool "same payload" true
    (List.exists (fun s -> Bytes.to_string s.Tcp.payload = "payload") rtx)

let test_tcp_ack_clears_inflight () =
  let ca, cb = establish () in
  let segs = Tcp.send ca (Bytes.of_string "data!") in
  let acks = List.concat_map (Tcp.handle cb) segs in
  List.iter (fun a -> ignore (Tcp.handle ca a)) acks;
  check Alcotest.int "acked" 0 (Tcp.bytes_in_flight ca)


(* Satellite regression for the O(n^2) inflight append: a full window of
   segments must come out in seq order, sized by mss, with the flight
   accounting and retransmission order matching emission order. *)
let test_tcp_inflight_order_and_window () =
  let ca, _cb = establish () in
  let segs = Tcp.send ca (Bytes.of_string (String.make 9500 'x')) in
  check Alcotest.int "window caps emission" Tcp.window_segments
    (List.length segs);
  let expected =
    List.init Tcp.window_segments (fun i ->
        Int32.add 101l (Int32.of_int (i * Tcp.mss)))
  in
  check (Alcotest.list Alcotest.int32) "seqs ascend by mss" expected
    (List.map (fun s -> s.Tcp.seq) segs);
  check Alcotest.int "flight = full window"
    (Tcp.window_segments * Tcp.mss)
    (Tcp.bytes_in_flight ca)

let test_tcp_retransmit_preserves_order () =
  let ca, cb = establish () in
  let segs = Tcp.send ca (Bytes.of_string (String.make 3500 'y')) in
  let rec tick_until_rtx n =
    if n = 0 then []
    else match Tcp.tick ca with [] -> tick_until_rtx (n - 1) | ss -> ss
  in
  let rtx = tick_until_rtx 10 in
  check (Alcotest.list Alcotest.int32) "retransmit order = send order"
    (List.map (fun s -> s.Tcp.seq) segs)
    (List.map (fun s -> s.Tcp.seq) rtx);
  (* Ack the first two segments; the tail keeps its order and the flight
     shrinks by exactly the acked bytes. *)
  (match segs with
  | s1 :: s2 :: _ ->
      let a1 = Tcp.handle cb s1 in
      let a2 = Tcp.handle cb s2 in
      List.iter (fun a -> ignore (Tcp.handle ca a : Tcp.segment list)) (a1 @ a2)
  | _ -> Alcotest.fail "expected several segments");
  check Alcotest.int "flight after partial ack" 1500 (Tcp.bytes_in_flight ca);
  let rtx2 = tick_until_rtx 10 in
  check (Alcotest.list Alcotest.int32) "tail retransmits in order"
    (List.map (fun s -> s.Tcp.seq) (List.filteri (fun i _ -> i >= 2) segs))
    (List.map (fun s -> s.Tcp.seq) rtx2)

let test_tcp_rst_closes () =
  let ca, _ = establish () in
  let rst =
    {
      Tcp.src_port = 80;
      dst_port = 1000;
      seq = 0l;
      ack_n = 0l;
      flags = { Tcp.syn = false; ack = false; fin = false; rst = true; psh = false };
      window = 0;
      payload = Bytes.empty;
    }
  in
  ignore (Tcp.handle ca rst);
  check Alcotest.bool "closed on RST" true (Tcp.state ca = Tcp.Closed)

let test_tcp_window_limits_inflight () =
  let ca, _ = establish () in
  let big = Bytes.make (Tcp.mss * (Tcp.window_segments + 4)) 'w' in
  ignore (Tcp.send ca big);
  check Alcotest.bool "window respected" true
    (Tcp.bytes_in_flight ca <= Tcp.window_segments * Tcp.mss)

(* ------------------------------------------------------------------ *)
(* Stack-level adversarial scenarios *)

let host_pair () =
  let na = Nic.create ~mac:"\x02\x00\x00\x00\x00\x0a" () in
  let nb = Nic.create ~mac:"\x02\x00\x00\x00\x00\x0b" () in
  Nic.connect na nb;
  (Stack.create ~nic:na ~ip:ip_a, Stack.create ~nic:nb ~ip:ip_b, na, nb)

let test_stack_arp_reply_only_for_own_ip () =
  let a, b, _, _ = host_pair () in
  (* a sends to an address nobody owns: must not get an ARP reply. *)
  Stack.udp_send a ~dst_ip:(Ip.addr_of_string "10.0.0.99") ~dst_port:1
    ~src_port:2 (Bytes.of_string "x");
  Stack.pump [ a; b ];
  check Alcotest.int "no phantom neighbour" 0 (Stack.arp_cache_size a)

let test_stack_udp_queued_behind_arp () =
  let a, b, _, _ = host_pair () in
  Stack.udp_bind b 9;
  (* First datagram triggers ARP; it must still arrive after resolution. *)
  Stack.udp_send a ~dst_ip:ip_b ~dst_port:9 ~src_port:1 (Bytes.of_string "m1");
  Stack.udp_send a ~dst_ip:ip_b ~dst_port:9 ~src_port:1 (Bytes.of_string "m2");
  Stack.pump [ a; b ];
  let recv () =
    match Stack.udp_recv b 9 with
    | Some (_, _, p) -> Bytes.to_string p
    | None -> "<none>"
  in
  check Alcotest.string "first queued datagram" "m1" (recv ());
  check Alcotest.string "second datagram" "m2" (recv ())

let test_stack_syn_loss_recovers () =
  let a, b, na, _ = host_pair () in
  Stack.tcp_listen b 80;
  Nic.drop_next_tx na;
  (* the SYN is lost *)
  let ca = Stack.tcp_connect a ~dst_ip:ip_b ~dst_port:80 in
  Stack.pump_ticks ~rounds:30 [ a; b ];
  check Alcotest.bool "handshake recovered after SYN loss" true
    (Stack.tcp_state a ca = Tcp.Established)

let test_stack_duplicate_delivery_safe () =
  let a, b, _, _ = host_pair () in
  Stack.tcp_listen b 80;
  let ca = Stack.tcp_connect a ~dst_ip:ip_b ~dst_port:80 in
  Stack.pump [ a; b ];
  match Stack.tcp_accept b 80 with
  | None -> Alcotest.fail "accept"
  | Some cb ->
      (* Force retransmission of already-delivered data by withholding
         ticks on one side: send, deliver, then tick sender to re-emit. *)
      Stack.tcp_send a ca (Bytes.of_string "once");
      Stack.pump [ a; b ];
      let first = Bytes.to_string (Stack.tcp_recv b cb) in
      for _ = 1 to 6 do
        Stack.tick a
      done;
      Stack.pump [ a; b ];
      let second = Bytes.to_string (Stack.tcp_recv b cb) in
      check Alcotest.string "delivered exactly once" "once" first;
      check Alcotest.string "duplicate suppressed" "" second

(* Reliability under randomized loss schedules: whatever subset of frames
   the adversary drops, a bounded retransmission budget delivers the full
   stream intact and in order. *)
let prop_tcp_reliable_under_random_loss =
  qtest "tcp delivers under any random loss schedule" 25
    QCheck2.Gen.(
      pair (list_size (int_range 0 12) (int_range 0 8)) (int_range 500 4000))
    (fun (drop_schedule, nbytes) ->
      let a, b, na, nb = host_pair () in
      Stack.tcp_listen b 80;
      let ca = Stack.tcp_connect a ~dst_ip:ip_b ~dst_port:80 in
      Stack.pump_ticks ~rounds:20 [ a; b ];
      match Stack.tcp_accept b 80 with
      | None -> false
      | Some cb ->
          let msg = String.init nbytes (fun i -> Char.chr (33 + (i mod 90))) in
          Stack.tcp_send a ca (Bytes.of_string msg);
          (* Interleave transfer progress with adversarial drops on both
             NICs, then give the retransmission timer room to finish. *)
          List.iter
            (fun gap ->
              Nic.drop_next_tx na;
              if gap mod 2 = 0 then Nic.drop_next_tx nb;
              Stack.pump_ticks ~rounds:(1 + gap) [ a; b ])
            drop_schedule;
          Stack.pump_ticks ~rounds:150 [ a; b ];
          Bytes.to_string (Stack.tcp_recv b cb) = msg)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bi_net"
    [
      ("vc-suite", vc_cases ());
      ( "pkt",
        [
          Alcotest.test_case "rw roundtrip" `Quick test_pkt_rw_roundtrip;
          Alcotest.test_case "truncation" `Quick test_pkt_truncation;
          Alcotest.test_case "copy counters domain-local" `Quick
            test_copy_counters_domain_local;
          Alcotest.test_case "checksum vector" `Quick test_checksum_rfc1071_example;
          Alcotest.test_case "checksum odd length" `Quick test_checksum_odd_length;
          prop_checksum_self_verifies;
          Alcotest.test_case "checksum matches bytewise" `Quick
            test_checksum_matches_bytewise;
          Alcotest.test_case "word codecs match bytewise" `Quick
            test_word_codecs_match_bytewise;
        ] );
      ( "layers",
        [
          Alcotest.test_case "eth broadcast" `Quick test_eth_broadcast_constant;
          Alcotest.test_case "ip notation" `Quick test_ip_addr_notation;
          Alcotest.test_case "ip ttl/proto" `Quick test_ip_ttl_proto_preserved;
          Alcotest.test_case "udp corrupted dropped" `Quick test_udp_bad_checksum_dropped;
          Alcotest.test_case "udp pseudo-header binds" `Quick test_udp_wrong_pseudo_header;
          Alcotest.test_case "arp cache eviction" `Quick test_arp_cache_eviction;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "handshake states" `Quick test_tcp_handshake_states;
          Alcotest.test_case "out-of-order dropped" `Quick test_tcp_out_of_order_dropped;
          Alcotest.test_case "retransmit after silence" `Quick test_tcp_retransmit_after_silence;
          Alcotest.test_case "ack clears inflight" `Quick test_tcp_ack_clears_inflight;
          Alcotest.test_case "rst closes" `Quick test_tcp_rst_closes;
          Alcotest.test_case "window limits inflight" `Quick test_tcp_window_limits_inflight;
          Alcotest.test_case "inflight order and window" `Quick
            test_tcp_inflight_order_and_window;
          Alcotest.test_case "retransmit preserves order" `Quick
            test_tcp_retransmit_preserves_order;
        ] );
      ( "stack",
        [
          Alcotest.test_case "arp only own ip" `Quick test_stack_arp_reply_only_for_own_ip;
          Alcotest.test_case "udp queued behind arp" `Quick test_stack_udp_queued_behind_arp;
          Alcotest.test_case "syn loss recovers" `Quick test_stack_syn_loss_recovers;
          Alcotest.test_case "duplicate delivery safe" `Quick test_stack_duplicate_delivery_safe;
          prop_tcp_reliable_under_random_loss;
        ] );
    ]
