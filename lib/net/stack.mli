(** Per-host network stack: demultiplexes frames from the NIC into ARP,
    UDP and TCP, resolves neighbours, and exposes the socket-ish API the
    kernel's network syscalls sit on.

    Progress model: the simulated wire ({!Bi_hw.Device.Nic}) holds frames
    until [deliver]; {!poll} drains this host's receive ring; {!tick}
    drives TCP retransmission.  {!pump} runs a set of hosts to quiescence
    — tests inject loss between pumps. *)

type t

val create : nic:Bi_hw.Device.Nic.t -> ip:int32 -> t

val ip : t -> int32
val mac : t -> string

val poll : t -> unit
(** Process every frame waiting in the NIC's receive ring. *)

val tick : t -> unit
(** Advance protocol timers (TCP RTO, pending-ARP retries). *)

(** {1 UDP} *)

val udp_bind : t -> int -> unit
(** Open a port for receiving; raises [Invalid_argument] if bound. *)

val udp_is_bound : t -> int -> bool

val udp_send :
  t -> dst_ip:int32 -> dst_port:int -> src_port:int -> bytes -> unit
(** Transmit a datagram (queues behind ARP resolution if needed). *)

val udp_recv : t -> int -> (int32 * int * bytes) option
(** Dequeue [(src_ip, src_port, payload)] from a bound port. *)

(** {1 TCP} *)

type conn_id = int
(** Exposed as [int] so connection handles can cross the syscall ABI. *)

val tcp_listen : t -> int -> unit
val tcp_unlisten : t -> int -> unit
(** Stop accepting new connections on a port, and reset the connections
    on it that no one accepted: they leave the table, and their peers
    see the reset. *)

val tcp_is_listening : t -> int -> bool
val tcp_connect : t -> dst_ip:int32 -> dst_port:int -> conn_id
val tcp_accept : t -> int -> conn_id option
(** A connection that completed the handshake on a listening port. *)

val tcp_send : t -> conn_id -> bytes -> unit
val tcp_recv : t -> conn_id -> bytes
val tcp_close : t -> conn_id -> unit
(** Begin an orderly close.  The connection is dropped once TCP reaches
    [Closed] (at once, or on a later {!tick}); after that every call on
    its id raises [Invalid_argument]. *)

val tcp_state : t -> conn_id -> Tcp.state

val tcp_conn_count : t -> int
(** Connections in the table, accepted or not.  A SYN-ACK that matches
    none is answered with a reset, and a never-accepted connection that
    reaches [Closed] leaves the table on the next {!tick}. *)

val arp_cache_size : t -> int

val pump : ?rounds:int -> t list -> unit
(** Repeatedly deliver every host's in-flight frames and poll every host,
    until no frames moved or [rounds] (default 64) passes elapsed. *)

val pump_ticks : ?rounds:int -> t list -> unit
(** Like {!pump} but also ticks each host every round (drives
    retransmission through lossy links). *)
