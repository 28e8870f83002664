(** Device models: timer, serial output, disk and network interface.

    The paper's component list (Section 1) includes device drivers for a
    network controller, disk controllers, an interrupt controller, a timer
    and serial output; these are the hardware halves those drivers talk
    to.  Each device is deterministic.  None raises interrupts: the kernel
    polls its devices on every idle tick ([Bi_kernel.Kernel]), so the
    model has no interrupt controller. *)

(** Tick counter: the kernel's one clock. *)
module Timer : sig
  type t

  val create : unit -> t
  val tick : t -> unit
  (** Advance one tick. *)

  val now : t -> int64
  (** Ticks since {!create}. *)
end

(** Write-only serial console that keeps the newest {!capacity} bytes
    written, as a kernel log ring does. *)
module Serial : sig
  type t

  val capacity : int
  (** 16 KiB.  The largest console any test, VC world, example or
      [bi_os] run writes is about 0.5 KiB, so only a long-running system
      (a netd restarted thousands of times) ever loses its oldest
      lines. *)

  val create : unit -> t
  val write_char : t -> char -> unit
  val write_string : t -> string -> unit
  val output : t -> string
  (** The newest {!capacity} bytes written (all of them, if fewer). *)

  val clear : t -> unit
end

(** Fixed-geometry sector-addressed disk. *)
module Disk : sig
  type t

  val sector_size : int

  val create : sectors:int -> unit -> t

  val sectors : t -> int
  val read_sector : t -> int -> bytes
  (** Raises [Invalid_argument] on an out-of-range sector. *)

  val write_sector : t -> int -> bytes -> unit
  (** The buffer must be exactly [sector_size] bytes. *)

  val flush : t -> unit
  (** Barrier: all previous writes become durable (see {!crash}). *)

  val crash : ?seed:int -> t -> t
  (** A copy of the disk holding only data durable at the last {!flush},
      with each un-flushed write independently either applied or dropped
      (deterministically, seeded by write order) — the prefix-crash model
      the filesystem's recovery VCs quantify over.  [seed] selects a
      different (still deterministic) survival subset, so fault plans can
      sweep crash subsets; omitting it gives the historical fixed cut. *)

  val crash_with : t -> keep_unflushed:int -> t
  (** Deterministic crash keeping exactly the first [keep_unflushed]
      un-flushed writes (in issue order).  [keep_unflushed] is clamped to
      [[0, pending]]: a negative count keeps nothing, a count beyond the
      pending writes keeps them all. *)

  val contents : t -> string array
  (** Every sector as {!read_sector} would return it, without copying: a
      stored sector buffer is never mutated in place, so the strings share
      the disk's buffers and equal contents are often physically equal. *)

  val durable : t -> bytes array
  (** The sectors as of the last {!flush}: the disk's own array, not a
      copy, so it changes when the disk is next flushed.  With no write
      pending (as on any {!crash} copy) it is the disk's contents.
      Callers must not mutate it or its buffers; [Array.copy] is a
      snapshot, since a stored buffer is never mutated in place. *)

  val io_count : t -> int
end

(** Network interface: paired TX/RX frame queues.  Two NICs are linked with
    {!connect}, which models the wire. *)
module Nic : sig
  type t

  val mtu : int

  val create : mac:string -> unit -> t
  (** [mac] is a 6-byte string. *)

  val mac : t -> string
  val connect : t -> t -> unit
  (** Cross-link the two NICs' queues (full duplex). *)

  val transmit : t -> bytes -> unit
  (** Queue a frame for the peer; raises [Invalid_argument] beyond
      {!mtu}. Frames are delivered by {!deliver}. *)

  val deliver : t -> int
  (** Move queued frames across the wire into peers' RX rings; returns the
      number delivered.  Separating transmit from
      delivery lets tests model in-flight loss and reordering. *)

  val drop_next_tx : t -> unit
  (** Fault injection: silently lose the next transmitted frame. *)

  val take_tx : t -> bytes option
  (** Pull the oldest frame off this NIC's outbound wire queue without
      delivering it — the tap a fault-injecting link uses to interpose on
      delivery. *)

  val inject_rx : t -> bytes -> unit
  (** Push a frame straight into this NIC's RX ring — the other half of a
      fault-injecting link. *)

  val receive : t -> bytes option
  (** Dequeue a received frame, if any. *)

  val rx_pending : t -> int
end
