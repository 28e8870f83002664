(** TCP-lite: a small but real TCP.

    The paper calls out that "we did not find a verified high-performance
    network stack" (Section 6) and lists the network stack as a component
    every verified OS is missing (Table 2).  This implementation provides
    the reliable-byte-stream contract that the stack's VCs check under
    packet loss: three-way handshake, cumulative acknowledgements,
    go-back-N retransmission on a tick-driven timer, in-order delivery
    (out-of-order segments are dropped and re-acked), and the four-way
    close.  No SACK, no congestion control, fixed windows — those are
    performance features, not correctness features.

    The module is sans-io: every function returns the segments to
    transmit; {!Stack} does framing, ARP and delivery. *)

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

val encode_segment : src_ip:int32 -> dst_ip:int32 -> segment -> bytes

val encode_segment_iov :
  src_ip:int32 -> dst_ip:int32 -> segment -> Pkt.Iov.t
(** Zero-copy {!encode_segment}: header slice + payload slice, the
    pseudo-header checksum striding both. *)

val decode_segment : src_ip:int32 -> dst_ip:int32 -> bytes -> segment option

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

val pp_state : Format.formatter -> state -> unit

type conn

val mss : int
(** Maximum segment payload (1000 bytes). *)

val window_segments : int
(** Go-back-N window, in segments. *)

val initiate :
  local_port:int -> remote_ip:int32 -> remote_port:int -> isn:int32 ->
  conn * segment
(** Active open: a connection in [Syn_sent] plus its SYN. *)

val accept_syn :
  local_port:int -> remote_ip:int32 -> remote_port:int -> isn:int32 ->
  peer_seq:int32 -> conn * segment
(** Passive open from a received SYN: [Syn_received] plus the SYN-ACK. *)

val handle : conn -> segment -> segment list
(** Process an incoming segment (already verified and demultiplexed). *)

val send : conn -> bytes -> segment list
(** Queue application data; returns any immediately-transmittable
    segments.  Data queued while closed is discarded. *)

val close : conn -> segment list
(** Begin an orderly close once buffered data drains. *)

val abort : conn -> segment list
(** Reset: the connection goes to [Closed] at once and answers the RST
    that tells its peer so (none if it was already [Closed]). *)

val tick : conn -> segment list
(** Advance the retransmission timer one tick; returns retransmissions.
    After too many retransmissions the connection resets to [Closed]. *)

val recv : conn -> bytes
(** Drain in-order received data (empty if none). *)

val state : conn -> state
val remote : conn -> int32 * int
val local_port : conn -> int

val bytes_in_flight : conn -> int
(** Unacknowledged payload bytes (for tests and stats). *)
