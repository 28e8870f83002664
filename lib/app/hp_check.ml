(* The hot-path suite: Checked≡Erased parity and batched≡sequential
   equivalence for the three erased-mode optimizations — NR flat-combining
   batch apply, vectored zero-copy framing, and the size-classed request
   buffer pool — plus the seeded mutants each one must catch. *)

module Vc = Bi_core.Vc
module Gen = Bi_core.Gen
module Contract = Bi_core.Contract
module E = Bi_core.Explore
module Nr = Bi_nr.Nr
module Pkt = Bi_net.Pkt
module Iov = Bi_net.Pkt.Iov
module Eth = Bi_net.Eth
module Ip = Bi_net.Ip
module Udp = Bi_net.Udp
module Tcp = Bi_net.Tcp
module Ualloc = Bi_ulib.Ualloc
module Pool = Bi_ulib.Ualloc.Pool
module P = Protocol

(* ------------------------------------------------------------------ *)
(* NR batch apply                                                      *)

(* A counter with a non-commutative op pair: Incr then Double differs
   from Double then Incr, so any reordering inside a batch is visible in
   both the responses and the final value. *)
module Cnt = Bi_nr.Counter

module N = Nr.Make (Cnt)

(* Drive a seeded single-domain workload through submit/kick/drain so
   both replay modes see the identical submission schedule, and return
   (responses in drain order, final value on each replica, the instance
   for counter inspection). *)
let drive ~replay ~seed ~rounds =
  let g = Gen.create (Int64.of_int (0x9e3779b9 + seed)) in
  let tpr = 4 in
  let nr = N.create ~replicas:2 ~threads_per_replica:tpr ~replay () in
  let resps = ref [] in
  for _ = 1 to rounds do
    let rep = Gen.int g 2 in
    let k = 1 + Gen.int g tpr in
    for i = 0 to k - 1 do
      let op = Gen.oneof g [ Cnt.Incr; Cnt.Double; Cnt.Incr ] in
      N.submit nr ~thread:((rep * tpr) + i) op
    done;
    ignore (N.kick nr ~replica:rep : bool);
    for i = 0 to k - 1 do
      match N.drain nr ~thread:((rep * tpr) + i) with
      | Some r -> resps := r :: !resps
      | None -> ()
    done
  done;
  N.sync_all nr;
  let v0 = N.peek nr ~replica:0 (fun d -> !d) in
  let v1 = N.peek nr ~replica:1 (fun d -> !d) in
  (List.rev !resps, v0, v1, nr)

let equivalence_vc seed =
  let id = Printf.sprintf "hp/nr/batched-eq-sequential/%02d" seed in
  Vc.prop ~id ~category:"hp/nr" (fun () ->
      let rb, b0, b1, nrb = drive ~replay:Nr.Batched ~seed ~rounds:40 in
      let rs, s0, s1, nrs = drive ~replay:Nr.Sequential ~seed ~rounds:40 in
      rb = rs && b0 = s0 && b1 = s1 && b0 = b1
      && N.log_entries nrb = N.log_entries nrs)

(* One k-op batch costs one combiner pass and one tail publish on the
   combining replica — the deterministic form of the batching win. *)
let vc_batch_single_publish =
  Vc.prop ~id:"hp/nr/batch-one-publish" ~category:"hp/nr" (fun () ->
      let nr = N.create ~replicas:1 ~threads_per_replica:8 () in
      for i = 0 to 7 do
        N.submit nr ~thread:i Cnt.Incr
      done;
      ignore (N.kick nr ~replica:0 : bool);
      let drained = ref 0 in
      for i = 0 to 7 do
        if N.drain nr ~thread:i <> None then incr drained
      done;
      let stats = N.batch_stats nr in
      !drained = 8 && N.combines nr = 1 && N.publishes nr = 1
      && N.log_entries nr = 8
      && stats = { Nr.batches = 1; entries = 8; max_batch = 8 })

let vc_sequential_publish_per_entry =
  Vc.prop ~id:"hp/nr/sequential-publish-per-entry" ~category:"hp/nr"
    (fun () ->
      let nr =
        N.create ~replicas:1 ~threads_per_replica:8 ~replay:Nr.Sequential ()
      in
      for i = 0 to 7 do
        N.submit nr ~thread:i Cnt.Incr
      done;
      ignore (N.kick nr ~replica:0 : bool);
      N.combines nr = 1 && N.publishes nr = 8 && N.log_entries nr = 8)

(* The empty-combine satellite fix: an empty-handed pass must not count
   a combine, must not append, must not publish. *)
let vc_empty_combine_no_append =
  Vc.prop ~id:"hp/nr/empty-combine-no-append" ~category:"hp/nr" (fun () ->
      let nr = N.create ~replicas:1 ~threads_per_replica:4 () in
      let took = N.kick nr ~replica:0 in
      took && N.combines nr = 0 && N.log_entries nr = 0
      && N.publishes nr = 0
      && N.batch_stats nr = { Nr.batches = 0; entries = 0; max_batch = 0 })

(* ...but an empty-handed pass on a lagging replica still catches the
   replica up to the log tail (that replay is its whole point). *)
let vc_empty_combine_catches_up =
  Vc.prop ~id:"hp/nr/empty-combine-catches-up" ~category:"hp/nr" (fun () ->
      let nr = N.create ~replicas:2 ~threads_per_replica:4 () in
      N.submit nr ~thread:0 Cnt.Incr;
      N.submit nr ~thread:1 Cnt.Incr;
      ignore (N.kick nr ~replica:0 : bool);
      ignore (N.kick nr ~replica:1 : bool);
      N.combines nr = 1
      && N.peek nr ~replica:1 (fun d -> !d) = 2
      && N.publishes nr = 2)

(* Under real cross-domain contention, non-empty combines can never
   exceed appended entries (each counted combine appends >= 1), and the
   structure still converges. *)
let vc_combines_bounded_under_contention =
  Vc.prop ~id:"hp/nr/combines-bounded-contended" ~category:"hp/nr" (fun () ->
      let nr = N.create ~replicas:2 ~threads_per_replica:2 () in
      let worker thread () =
        for _ = 1 to 50 do
          ignore (N.execute nr ~thread Cnt.Incr : int)
        done
      in
      let d1 = Domain.spawn (worker 0) in
      let d2 = Domain.spawn (worker 2) in
      Domain.join d1;
      Domain.join d2;
      N.sync_all nr;
      N.log_entries nr = 100
      && N.combines nr <= N.log_entries nr
      && N.combines nr > 0
      && N.peek nr ~replica:0 (fun d -> !d) = 100
      && N.peek nr ~replica:1 (fun d -> !d) = 100)

module Lin = Cnt.Lin

(* Batched replay must stay linearizable under real concurrency, not
   just equivalent on single-domain schedules. *)
let linearizability_vc seed =
  let id = Printf.sprintf "hp/nr/batched-linearizable/%02d" seed in
  Vc.prop ~id ~category:"hp/nr" (fun () ->
      let nr = N.create ~replicas:2 ~threads_per_replica:2 () in
      let op i =
        if i mod 5 = 4 then Cnt.Read
        else if (i + seed) mod 7 = 3 then Cnt.Double
        else Cnt.Incr
      in
      let history = Cnt.two_domain_history ~calls:30 ~op (N.execute nr) in
      Lin.check ~init:0 history)

(* Erasing the contracts must not change a single response. *)
let vc_nr_checked_eq_erased =
  Vc.prop ~id:"hp/nr/checked-eq-erased" ~category:"hp/nr" (fun () ->
      let run mode =
        Contract.with_mode mode (fun () -> drive ~replay:Nr.Batched ~seed:11 ~rounds:40)
      in
      let rc, c0, c1, _ = run Contract.Checked in
      let re, e0, e1, _ = run Contract.Erased in
      rc = re && c0 = e0 && c1 = e1)

(* ...and erasure really erases: the replay path's ghost blocks run in
   Checked mode and are exactly zero-cost in Erased mode. *)
let vc_nr_erasure_zero_ghost =
  Vc.prop ~id:"hp/nr/erasure-zero-ghost" ~category:"hp/nr" (fun () ->
      let ghost mode =
        Contract.with_mode mode (fun () ->
            let _, _, _, nr = drive ~replay:Nr.Batched ~seed:3 ~rounds:20 in
            N.ghost_checks nr)
      in
      ghost Contract.Checked > 0 && ghost Contract.Erased = 0)

(* Mutation knob #1: the unordered batch mutant must be visible — if it
   were not, the equivalence VCs above would prove nothing. *)
let vc_mutation_unordered_caught =
  Vc.make ~id:"hp/nr/mutation/unordered-batch-caught" ~category:"hp/mutation"
    (fun () ->
      let nr = N.create ~replicas:1 ~threads_per_replica:2 ~replay:Nr.Batched_unordered () in
      N.submit nr ~thread:0 Cnt.Incr;
      N.submit nr ~thread:1 Cnt.Double;
      ignore (N.kick nr ~replica:0 : bool);
      (* In order: incr then double gives 2.  The mutant applies the
         window reversed and lands on 1. *)
      let v = N.peek nr ~replica:0 (fun d -> !d) in
      if v = 2 then Vc.Falsified "reversed batch replay went undetected"
      else Vc.Proved)

(* ------------------------------------------------------------------ *)
(* Model-checked batched flat combiner                                 *)

(* The nr_mc combiner answers each slot as it drains it; the batched
   combiner gathers the whole window first and then applies it in one
   pass — the model-level shape of [apply_batch].  Same client protocol,
   same linearizability obligation. *)

type fcb_state = {
  req : E.var array; (* 0 = empty, 1 = increment requested *)
  resp : E.var array; (* 0 = empty, else result + 1 *)
  combiner : E.var;
  value : E.var;
  calls : Lin.call list ref;
}

let fcb_make n ctx =
  {
    req = Array.init n (fun i -> E.var ctx ~name:(Printf.sprintf "req%d" i) 0);
    resp = Array.init n (fun i -> E.var ctx ~name:(Printf.sprintf "resp%d" i) 0);
    combiner = E.var ctx ~name:"combiner" 0;
    value = E.var ctx ~name:"value" 0;
    calls = ref [];
  }

let fcb_combine ctx st =
  (* Gather phase: claim every published request into the batch. *)
  let batch = ref [] in
  Array.iteri
    (fun j rq -> if E.update ctx rq (fun _ -> 0) <> 0 then batch := j :: !batch)
    st.req;
  (* Apply phase: one in-order pass over the gathered window. *)
  List.iter
    (fun j ->
      let v = E.read ctx st.value in
      E.write ctx st.value (v + 1);
      E.write ctx st.resp.(j) (v + 1 + 1))
    (List.rev !batch)

let fcb_incr st ctx =
  let i = E.self ctx in
  let inv = E.now ctx in
  E.write ctx st.req.(i) 1;
  let rec wait () =
    let r = E.update ctx st.resp.(i) (fun _ -> 0) in
    if r <> 0 then r - 1
    else if E.cas ctx st.combiner ~expect:0 ~set:1 then begin
      fcb_combine ctx st;
      ignore (E.update ctx st.combiner (fun _ -> 0));
      wait ()
    end
    else begin
      ignore (E.await ctx st.combiner (fun v -> v = 0));
      wait ()
    end
  in
  let ret = wait () in
  let res = E.now ctx in
  st.calls :=
    { Lin.proc = i; op = Cnt.Incr; ret; inv; res } :: !(st.calls)

let fcb_lin_final st =
  match Lin.counterexample ~init:0 !(st.calls) with
  | None -> None
  | Some msg -> Some ("history not linearizable: " ^ msg)

let vc_mc_batched_linearizable =
  E.vc ~id:"hp/mc/batched-fc/linearizable-2t" ~category:"hp/mc"
    ~make:(fcb_make 2)
    ~threads:[ fcb_incr; fcb_incr ]
    ~final:fcb_lin_final ()

let vc_mc_batched_responses_exact =
  E.vc ~id:"hp/mc/batched-fc/responses-exact" ~category:"hp/mc"
    ~make:(fcb_make 2)
    ~threads:[ fcb_incr; fcb_incr ]
    ~final:(fun st ->
      let rets =
        List.sort compare (List.map (fun c -> c.Lin.ret) !(st.calls))
      in
      if rets = [ 1; 2 ] && E.peek st.value = 2 then None
      else
        Some
          (Printf.sprintf "returns [%s], value %d"
             (String.concat ";" (List.map string_of_int rets))
             (E.peek st.value)))
    ()

(* ------------------------------------------------------------------ *)
(* Vectored framing                                                    *)

let gen_bytes g n = Bytes.init n (fun _ -> Char.chr (Gen.int g 256))

(* Cut a buffer into 1..6 contiguous slices at random points — the
   adversarial shapes (odd lengths, empty-free) parity must survive. *)
let random_slices g b =
  let n = Bytes.length b in
  let rec cuts acc k = if k = 0 then acc else cuts (Gen.int g (n + 1) :: acc) (k - 1) in
  let pts = List.sort_uniq compare (0 :: n :: cuts [] (Gen.int g 5)) in
  let rec pair = function
    | a :: (b :: _ as rest) -> (a, b - a) :: pair rest
    | _ -> []
  in
  List.map (fun (off, len) -> Iov.slice b ~off ~len) (pair pts)

let gen_iov g =
  let b = gen_bytes g (1 + Gen.int g 300) in
  (b, random_slices g b)

let vc_iov_length_materialize =
  Vc.prop ~id:"hp/iov/length-and-materialize" ~category:"hp/iov"
    (Vc.forall_sampled ~id:"hp/iov/length-and-materialize" ~n:64 gen_iov
       (fun (b, iov) ->
         Iov.length iov = Bytes.length b && Iov.materialize iov = b))

let vc_iov_checksum_parity =
  Vc.prop ~id:"hp/iov/checksum-parity" ~category:"hp/iov"
    (Vc.forall_sampled ~id:"hp/iov/checksum-parity" ~n:128 gen_iov
       (fun (b, iov) ->
         Pkt.checksum_iov iov = Pkt.checksum b ~off:0 ~len:(Bytes.length b)))

(* The hard case for strided RFC 1071: odd-length slices shift the
   16-bit word phase, so the carry parity must cross boundaries. *)
let vc_iov_checksum_odd_slices =
  Vc.prop ~id:"hp/iov/checksum-odd-slices" ~category:"hp/iov" (fun () ->
      let b = Bytes.init 31 (fun i -> Char.chr ((i * 37 + 11) land 0xFF)) in
      let iov =
        [ Iov.slice b ~off:0 ~len:1; Iov.slice b ~off:1 ~len:3;
          Iov.slice b ~off:4 ~len:5; Iov.slice b ~off:9 ~len:7;
          Iov.slice b ~off:16 ~len:15 ]
      in
      Pkt.checksum_iov iov = Pkt.checksum b ~off:0 ~len:31)

let vc_iov_crc32_parity =
  Vc.prop ~id:"hp/iov/crc32-parity" ~category:"hp/iov"
    (Vc.forall_sampled ~id:"hp/iov/crc32-parity" ~n:64 gen_iov
       (fun (b, iov) -> P.crc32_iov iov = P.crc32 (Bytes.to_string b)))

let mac g = String.init 6 (fun _ -> Char.chr (Gen.int g 256))

let vc_eth_parity =
  Vc.prop ~id:"hp/iov/eth-parity" ~category:"hp/iov"
    (Vc.forall_sampled ~id:"hp/iov/eth-parity" ~n:48
       (fun g ->
         let payload = gen_bytes g (1 + Gen.int g 200) in
         (mac g, mac g, Gen.int g 0x10000, payload, random_slices g payload))
       (fun (dst, src, ethertype, payload, slices) ->
         Iov.materialize (Eth.frame_iov ~dst ~src ~ethertype slices)
         = Eth.encode { Eth.dst; src; ethertype; payload }))

let vc_ip_parity =
  Vc.prop ~id:"hp/iov/ip-parity" ~category:"hp/iov"
    (Vc.forall_sampled ~id:"hp/iov/ip-parity" ~n:48
       (fun g ->
         let payload = gen_bytes g (1 + Gen.int g 200) in
         ( Int64.to_int32 (Gen.next64 g),
           Int64.to_int32 (Gen.next64 g),
           Gen.int g 256,
           1 + Gen.int g 255,
           payload,
           random_slices g payload ))
       (fun (src, dst, proto, ttl, payload, slices) ->
         Iov.materialize (Ip.packet_iov ~src ~dst ~proto ~ttl slices)
         = Ip.encode { Ip.src; dst; proto; ttl; payload }))

let vc_udp_parity =
  Vc.prop ~id:"hp/iov/udp-parity" ~category:"hp/iov"
    (Vc.forall_sampled ~id:"hp/iov/udp-parity" ~n:48
       (fun g ->
         let payload = gen_bytes g (1 + Gen.int g 200) in
         ( Int64.to_int32 (Gen.next64 g),
           Int64.to_int32 (Gen.next64 g),
           Gen.int g 0x10000,
           Gen.int g 0x10000,
           payload,
           random_slices g payload ))
       (fun (src_ip, dst_ip, src_port, dst_port, payload, slices) ->
         Iov.materialize
           (Udp.datagram_iov ~src_ip ~dst_ip ~src_port ~dst_port slices)
         = Udp.encode ~src_ip ~dst_ip { Udp.src_port; dst_port; payload }))

let vc_tcp_parity =
  Vc.prop ~id:"hp/iov/tcp-parity" ~category:"hp/iov"
    (Vc.forall_sampled ~id:"hp/iov/tcp-parity" ~n:48
       (fun g ->
         let payload = gen_bytes g (Gen.int g 200) in
         let flags =
           { Tcp.syn = Gen.bool g; ack = Gen.bool g; fin = Gen.bool g;
             rst = Gen.bool g; psh = Gen.bool g }
         in
         ( Int64.to_int32 (Gen.next64 g),
           Int64.to_int32 (Gen.next64 g),
           { Tcp.src_port = Gen.int g 0x10000; dst_port = Gen.int g 0x10000;
             seq = Int64.to_int32 (Gen.next64 g);
             ack_n = Int64.to_int32 (Gen.next64 g);
             flags; window = Gen.int g 0x10000; payload } ))
       (fun (src_ip, dst_ip, seg) ->
         Iov.materialize (Tcp.encode_segment_iov ~src_ip ~dst_ip seg)
         = Tcp.encode_segment ~src_ip ~dst_ip seg))

let sample_reqs =
  [
    P.Put { key = "blk-7"; value = String.make 120 'x'; crc = P.crc32 (String.make 120 'x');
            txn = Some { P.client = 3; seq = 41 } };
    P.Get "blk-7";
    P.Delete { key = "blk-7"; txn = Some { P.client = 3; seq = 42 } };
    P.List;
    P.Ping;
    P.Shutdown;
  ]

let sample_resps =
  [
    P.Done;
    P.Value { value = String.make 200 'v'; crc = 17l };
    P.Missing;
    P.Listing [ "a"; "bb"; "ccc" ];
    P.Pong { health = P.Serving; epoch = 4 };
    P.Err (P.Wrong_shard 9);
  ]

let vc_req_frame_parity =
  Vc.prop ~id:"hp/iov/req-frame-parity" ~category:"hp/iov"
    (Vc.forall_list sample_reqs (fun r ->
         Iov.materialize (P.encode_req_iov r) = P.encode_req r))

let vc_resp_frame_parity =
  Vc.prop ~id:"hp/iov/resp-frame-parity" ~category:"hp/iov"
    (Vc.forall_list sample_resps (fun r ->
         Iov.materialize (P.encode_resp_iov r) = P.encode_resp r))

let vc_seal_parity =
  Vc.prop ~id:"hp/iov/seal-parity" ~category:"hp/iov"
    (Vc.forall_sampled ~id:"hp/iov/seal-parity" ~n:48 gen_iov
       (fun (b, iov) ->
         Iov.materialize (P.seal_iov ~id:7 iov) = P.seal ~id:7 b))

let vc_seal_unseal_roundtrip =
  Vc.prop ~id:"hp/iov/seal-unseal-roundtrip" ~category:"hp/iov"
    (Vc.forall_list sample_resps (fun r ->
         let frame =
           Iov.materialize (P.seal_iov ~id:33 (P.encode_resp_iov r))
         in
         match P.unseal frame with
         | Some (33, body) -> (
             match P.decode_resp body ~off:0 with
             | Some (r', _) -> r' = r
             | None -> false)
         | _ -> false))

(* Full-stack composition: app frame sealed, UDP'd, IP'd, Ethernet'd —
   the vectored path materializes to the copying path bit-for-bit. *)
let stack_args g =
  let resp = P.Value { value = String.make (200 + Gen.int g 800) 'd'; crc = 5l } in
  ( mac g, mac g,
    Int64.to_int32 (Gen.next64 g), Int64.to_int32 (Gen.next64 g),
    1000 + Gen.int g 1000, 1000 + Gen.int g 1000, resp )

let stack_frame_iov (dm, sm, sip, dip, sp, dp, resp) =
  Eth.frame_iov ~dst:dm ~src:sm ~ethertype:Eth.ethertype_ipv4
    (Ip.packet_iov ~src:sip ~dst:dip ~proto:Ip.proto_udp ~ttl:64
       (Udp.datagram_iov ~src_ip:sip ~dst_ip:dip ~src_port:sp ~dst_port:dp
          (P.seal_iov ~id:9 (P.encode_resp_iov resp))))

let stack_frame_copying (dm, sm, sip, dip, sp, dp, resp) =
  let app = P.seal ~id:9 (P.encode_resp resp) in
  let udp =
    Udp.encode ~src_ip:sip ~dst_ip:dip
      { Udp.src_port = sp; dst_port = dp; payload = app }
  in
  let ip =
    Ip.encode { Ip.src = sip; dst = dip; proto = Ip.proto_udp; ttl = 64; payload = udp }
  in
  Eth.encode { Eth.dst = dm; src = sm; ethertype = Eth.ethertype_ipv4; payload = ip }

let vc_stack_e2e_parity =
  Vc.prop ~id:"hp/iov/stack-e2e-parity" ~category:"hp/iov"
    (Vc.forall_sampled ~id:"hp/iov/stack-e2e-parity" ~n:24 stack_args
       (fun a -> Iov.materialize (stack_frame_iov a) = stack_frame_copying a))

(* The zero-copy claim itself, via the copy counters: building the iovec
   moves no payload bytes; materializing moves each byte exactly once;
   the copying path moves every byte several times over. *)
let vc_zero_copy_ablation =
  Vc.prop ~id:"hp/iov/zero-copy-ablation" ~category:"hp/iov" (fun () ->
      let g = Gen.of_string "hp/iov/zero-copy-ablation" in
      let a = stack_args g in
      Pkt.reset_copy_stats ();
      let iov = stack_frame_iov a in
      let building = Pkt.copied_bytes () in
      let frame = Iov.materialize iov in
      let vectored = Pkt.copied_bytes () in
      Pkt.reset_copy_stats ();
      let frame' = stack_frame_copying a in
      let copying = Pkt.copied_bytes () in
      Pkt.reset_copy_stats ();
      frame = frame' && building = 0
      && vectored = Bytes.length frame
      && copying >= 2 * vectored)

(* Mutation knob #2: a checksum that skips a slice must not pass the
   parity VC's comparison. *)
let vc_mutation_skip_slice_caught =
  Vc.make ~id:"hp/iov/mutation/skip-slice-caught" ~category:"hp/mutation"
    (fun () ->
      let b = Bytes.init 40 (fun i -> Char.chr ((i * 13 + 1) land 0xFF)) in
      let iov =
        [ Iov.slice b ~off:0 ~len:8; Iov.slice b ~off:8 ~len:9;
          Iov.slice b ~off:17 ~len:23 ]
      in
      let reference = Pkt.checksum b ~off:0 ~len:40 in
      if Pkt.checksum_iov iov <> reference then
        Vc.Falsified "strided checksum broke parity without the mutant"
      else if Pkt.checksum_iov ~skip_slice:1 iov = reference then
        Vc.Falsified "skipped slice went undetected"
      else Vc.Proved)

(* ------------------------------------------------------------------ *)
(* Request buffer pool                                                 *)

let vc_pool_lifo_reuse =
  Vc.prop ~id:"hp/pool/lifo-reuse" ~category:"hp/pool" (fun () ->
      let p = Pool.create ~size:16384 () in
      match Pool.alloc p 100 with
      | None -> false
      | Some off ->
          Pool.free p off;
          (* Same class, freed block cached: the next alloc is that very
             block, served from the stack. *)
          Pool.alloc p 200 = Some off
          && Pool.hits p = 1 && Pool.carves p = 1
          && Pool.check_invariants p)

(* After warmup the pooled classes never touch the arena again: zero
   first-fit hole scans — the O(1) claim, stated deterministically. *)
let vc_pool_o1_after_warmup =
  Vc.prop ~id:"hp/pool/zero-scans-after-warmup" ~category:"hp/pool" (fun () ->
      let p = Pool.create ~size:65536 () in
      let sizes = [ 64; 256; 1024; 4096 ] in
      let warm = List.filter_map (Pool.alloc p) sizes in
      List.iter (Pool.free p) warm;
      Ualloc.reset_scans (Pool.arena p);
      for _ = 1 to 100 do
        let offs = List.filter_map (Pool.alloc p) sizes in
        List.iter (Pool.free p) offs
      done;
      Ualloc.scans (Pool.arena p) = 0
      && Pool.hits p = 400 && Pool.check_invariants p)

let vc_pool_oversize_fallback =
  Vc.prop ~id:"hp/pool/oversize-fallback" ~category:"hp/pool" (fun () ->
      let p = Pool.create ~size:65536 () in
      match Pool.alloc p 10_000 with
      | None -> false
      | Some off ->
          let carved = Pool.carves p in
          Pool.free p off;
          (* Oversize blocks bypass the stacks entirely. *)
          carved = 0 && Pool.cached_blocks p = 0 && Pool.live_blocks p = 0
          && Ualloc.block_count (Pool.arena p) = 0
          && Pool.check_invariants p)

(* Seeded random alloc/free traces preserve every pool invariant at
   every step, and a final free+drain coalesces the arena back to one
   block. *)
let pool_fuzz_vc seed =
  let id = Printf.sprintf "hp/pool/invariants-fuzz/%02d" seed in
  Vc.prop ~id ~category:"hp/pool" (fun () ->
      let g = Gen.create (Int64.of_int (0xA11C + seed)) in
      let p = Pool.create ~size:16384 () in
      let live = ref [] in
      let ok = ref true in
      for _ = 1 to 400 do
        (if Gen.bool g || !live = [] then begin
           let n = Gen.oneof g [ 16; 24; 64; 200; 256; 900; 1024; 4096; 6000 ] in
           match Pool.alloc p n with
           | Some off -> live := off :: !live
           | None -> ()
         end
         else begin
           let i = Gen.int g (List.length !live) in
           let off = List.nth !live i in
           live := List.filteri (fun j _ -> j <> i) !live;
           Pool.free p off
         end);
        ok := !ok && Pool.check_invariants p
      done;
      List.iter (Pool.free p) !live;
      Pool.drain p;
      !ok && Pool.live_blocks p = 0 && Pool.cached_blocks p = 0
      && Ualloc.block_count (Pool.arena p) = 0
      && Ualloc.free_bytes (Pool.arena p) = 16384
      && Pool.check_invariants p)

let vc_pool_coalesce_on_drain =
  Vc.prop ~id:"hp/pool/coalesce-on-drain" ~category:"hp/pool" (fun () ->
      let p = Pool.create ~size:16384 () in
      let offs = List.filter_map (Pool.alloc p) [ 64; 64; 256; 1024; 64 ] in
      List.iter (Pool.free p) offs;
      let cached = Pool.cached_blocks p in
      Pool.drain p;
      cached = 5 && Pool.cached_blocks p = 0
      && Ualloc.free_bytes (Pool.arena p) = 16384
      && Ualloc.block_count (Pool.arena p) = 0
      && Pool.check_invariants p)

let vc_pool_accounting =
  Vc.prop ~id:"hp/pool/hits-and-carves" ~category:"hp/pool" (fun () ->
      let p = Pool.create ~size:65536 () in
      let a = Option.get (Pool.alloc p 64) in
      let b = Option.get (Pool.alloc p 64) in
      Pool.free p a;
      Pool.free p b;
      let c = Option.get (Pool.alloc p 64) in
      let d = Option.get (Pool.alloc p 64) in
      Pool.free p c;
      Pool.free p d;
      Pool.carves p = 2 && Pool.hits p = 2 && Pool.live_blocks p = 0
      && Pool.cached_blocks p = 2 && Pool.check_invariants p)

let vc_pool_double_free_raises =
  Vc.prop ~id:"hp/pool/double-free-raises" ~category:"hp/pool" (fun () ->
      let p = Pool.create ~size:16384 () in
      let off = Option.get (Pool.alloc p 64) in
      Pool.free p off;
      (match Pool.free p off with
      | () -> false
      | exception Invalid_argument _ -> true)
      && Pool.check_invariants p)

(* Mutation knob #3: with the guard removed, the double free corrupts
   the pool — and the invariant checker sees the corruption. *)
let vc_mutation_double_free_caught =
  Vc.make ~id:"hp/pool/mutation/double-free-caught" ~category:"hp/mutation"
    (fun () ->
      let p = Pool.create ~size:16384 () in
      let off = Option.get (Pool.alloc p 64) in
      Pool.free p off;
      Pool.unsafe_free p off;
      if Pool.check_invariants p then
        Vc.Falsified "double free left the pool looking consistent"
      else Vc.Proved)

(* ------------------------------------------------------------------ *)
(* End-to-end: the pooled byte-level request path                      *)

let seal_req ~id r = P.seal ~id (P.encode_req r)

(* Built per VC, not shared: VCs run on several domains, and forcing one
   lazy value from two domains at once raises. *)
let workload_frames () =
  List.mapi
    (fun i r -> seal_req ~id:i r)
    [
      P.Put { key = "k1"; value = "v1"; crc = P.crc32 "v1";
              txn = Some { P.client = 1; seq = 1 } };
      P.Get "k1";
      P.Put { key = "k2"; value = String.make 300 'z';
              crc = P.crc32 (String.make 300 'z');
              txn = Some { P.client = 1; seq = 2 } };
      P.List;
      P.Delete { key = "k1"; txn = Some { P.client = 1; seq = 3 } };
      P.Get "k1";
      P.Ping;
    ]

(* Every request/response scratch buffer returns to the pool — even when
   frames are corrupt and the handler bails early. *)
let vc_pool_leak_free_handle_frame =
  Vc.prop ~id:"hp/e2e/handle-frame-leak-free" ~category:"hp/e2e" (fun () ->
      let p = Pool.create ~size:65536 () in
      let core = Node_core.create ~pool:p (Node_core.mem_store ()) in
      let frames = workload_frames () in
      let answered =
        List.for_all
          (fun f -> Node_core.handle_frame core f <> None)
          frames
      in
      let corrupt =
        List.map
          (fun f ->
            let c = Bytes.copy f in
            Bytes.set c (Bytes.length c - 1)
              (Char.chr (Char.code (Bytes.get c (Bytes.length c - 1)) lxor 0xFF));
            c)
          frames
      in
      let dropped =
        List.for_all (fun f -> Node_core.handle_frame core f = None) corrupt
      in
      answered && dropped && Pool.live_blocks p = 0
      && Pool.check_invariants p)

(* The pool is an optimization, not a semantics: pooled and unpooled
   nodes answer byte-identical frames, which also match sealing the
   [handle] result directly. *)
let vc_handle_frame_parity =
  Vc.prop ~id:"hp/e2e/handle-frame-parity" ~category:"hp/e2e" (fun () ->
      let pooled =
        Node_core.create
          ~pool:(Pool.create ~size:65536 ())
          (Node_core.mem_store ())
      in
      let plain = Node_core.create (Node_core.mem_store ()) in
      let reference = Node_core.create (Node_core.mem_store ()) in
      let frames = workload_frames () in
      List.for_all
        (fun f ->
          let a = Node_core.handle_frame pooled f in
          let b = Node_core.handle_frame plain f in
          let c =
            match P.unseal f with
            | None -> None
            | Some (id, body) -> (
                match P.decode_req body ~off:0 with
                | None -> None
                | Some (req, _) ->
                    Some (P.seal ~id (P.encode_resp (Node_core.handle reference req))))
          in
          a = b && b = c && a <> None)
        frames)

(* Contract erasure does not change a single wire byte of the pooled
   request path. *)
let vc_e2e_checked_eq_erased =
  Vc.prop ~id:"hp/e2e/checked-eq-erased-frames" ~category:"hp/e2e" (fun () ->
      let run mode =
        Contract.with_mode mode (fun () ->
            let core =
              Node_core.create
                ~pool:(Pool.create ~size:65536 ())
                (Node_core.mem_store ())
            in
            List.map
              (fun f -> Node_core.handle_frame core f)
              (workload_frames ()))
      in
      run Contract.Checked = run Contract.Erased)

(* ------------------------------------------------------------------ *)

let vcs () =
  List.init 6 equivalence_vc
  @ [
      vc_batch_single_publish;
      vc_sequential_publish_per_entry;
      vc_empty_combine_no_append;
      vc_empty_combine_catches_up;
      vc_combines_bounded_under_contention;
    ]
  @ List.init 2 linearizability_vc
  @ [
      vc_nr_checked_eq_erased;
      vc_nr_erasure_zero_ghost;
      vc_mutation_unordered_caught;
      vc_mc_batched_linearizable;
      vc_mc_batched_responses_exact;
      vc_iov_length_materialize;
      vc_iov_checksum_parity;
      vc_iov_checksum_odd_slices;
      vc_iov_crc32_parity;
      vc_eth_parity;
      vc_ip_parity;
      vc_udp_parity;
      vc_tcp_parity;
      vc_req_frame_parity;
      vc_resp_frame_parity;
      vc_seal_parity;
      vc_seal_unseal_roundtrip;
      vc_stack_e2e_parity;
      vc_zero_copy_ablation;
      vc_mutation_skip_slice_caught;
      vc_pool_lifo_reuse;
      vc_pool_o1_after_warmup;
      vc_pool_oversize_fallback;
    ]
  @ List.init 2 pool_fuzz_vc
  @ [
      vc_pool_coalesce_on_drain;
      vc_pool_accounting;
      vc_pool_double_free_raises;
      vc_mutation_double_free_caught;
      vc_pool_leak_free_handle_frame;
      vc_handle_frame_parity;
      vc_e2e_checked_eq_erased;
    ]
