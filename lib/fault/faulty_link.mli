(** Fault-injecting network link.

    A seeded lossy/duplicating/reordering/corrupting/stalling wire driven
    by a {!Fault_plan}, in two flavours: a {!channel} carrying raw frames
    round by round (with a direct {!Tcp.conn} harness, {!run_transfer},
    for the TCP delivery-contract VCs), and a NIC-level {!link} that
    interposes on two {!Bi_hw.Device.Nic}s so complete stacks — ARP, IP,
    TCP — run over the faulty wire. *)

type channel

val channel : Fault_plan.t -> channel

val send : channel -> bytes -> unit
(** Submit a frame; the plan decides its fate (dropped, duplicated,
    released before the previous in-flight frame, corrupted, or stalled
    [n] extra rounds). *)

val step : channel -> bytes list
(** Advance one round and return the frames released this round, in
    order. *)

type stats = {
  rounds : int;
  ab_faults : int;
  ba_faults : int;
  delivered_ab : int;
  delivered_ba : int;
}

val run_transfer :
  ?decode:
    (src_ip:int32 -> dst_ip:int32 -> bytes -> Bi_net.Tcp.segment option) ->
  plan_ab:Fault_plan.t ->
  plan_ba:Fault_plan.t ->
  payload:bytes ->
  rounds:int ->
  unit ->
  string * stats
(** Drive a full TCP transfer of [payload] from A to B across two faulty
    channels for [rounds] delivery rounds (handshake, data, per-round
    [tick] for retransmission).  Returns the byte stream B's application
    actually received — the delivery contract demands it equals [payload]
    exactly (in-order, exactly-once) whenever the plans' fault budgets
    are bounded.  [decode] defaults to the checksum-validating
    {!Bi_net.Tcp.decode_segment}; the mutation VCs substitute one that
    skips validation and must then see a corrupted stream. *)

type link

val link :
  plan_ab:Fault_plan.t -> plan_ba:Fault_plan.t ->
  Bi_hw.Device.Nic.t -> Bi_hw.Device.Nic.t -> link
(** Interpose on two (unconnected) NICs: frames transmitted by either are
    pulled off its wire queue, run through the corresponding plan, and
    injected into the peer's receive ring. *)

val step_link : link -> int
(** Drain both NICs' transmit queues into the channels, advance one
    round, deliver released frames; returns frames delivered. *)
