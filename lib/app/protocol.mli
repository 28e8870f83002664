(** Wire protocol of the block store.

    The paper motivates its whole agenda with "the data-storage node in a
    distributed block store like GFS or S3" and Amazon's lightweight
    formal methods for the S3 storage node (Section 1).  This protocol is
    that node's client interface: length-framed {!Bi_ulib.Serde} messages
    over TCP, with a CRC-32 on every value so integrity violations are
    detected end-to-end.

    Mutations carry an optional transaction id — client id × sequence
    number — so a node can keep a per-client duplicate table and make
    retried [Put]/[Delete] exactly-once: the retry of an applied mutation
    is answered from the table, never re-applied.  Errors are a typed
    enum, not strings, so clients can decide retryability ([Bad_crc] means
    the wire corrupted an otherwise-valid request; [Read_only] means the
    node has entered degraded mode). *)

type txn = { client : int; seq : int }
(** Request identity for exactly-once retries.  All attempts of one
    logical mutation carry the same [txn]; distinct mutations from one
    client carry strictly increasing [seq]. *)

type err =
  | Bad_key  (** Key fails {!valid_key}. *)
  | Too_large  (** Value exceeds {!max_value_size}. *)
  | Bad_crc
      (** The request's own checksum did not match its value: the wire
          (not the client) corrupted the request — safe to retry. *)
  | No_crc  (** Stored block is too short to hold its checksum header. *)
  | Integrity  (** Stored data failed its checksum: corruption detected. *)
  | Read_only
      (** The node is in degraded mode after a backing-store write
          failure: it serves reads but accepts no mutations. *)
  | Wrong_shard of int
      (** The key's shard is not served here (not owned, or frozen for a
          mutation mid-migration).  Carries the responder's shard-map
          version; a router refreshes its map and re-routes under the
          same txn.  Not {!retryable} at the same node. *)
  | Io of string  (** Backing-store failure, with detail. *)
  | Overloaded
      (** The node's admission queue was full and the request was shed
          {e before} reaching the store: no state changed, no dup-table
          entry was written.  {!retryable} — a client backs off and
          resends under the same txn. *)

type health = Serving | Degraded

type req =
  | Put of { key : string; value : string; crc : int32; txn : txn option }
  | Get of string
  | Delete of { key : string; txn : txn option }
  | List
  | Ping
  | Shutdown  (** Stop the storage node (test/benchmark teardown). *)

type resp =
  | Done
  | Value of { value : string; crc : int32 }
  | Missing
  | Listing of string list
  | Pong of { health : health; epoch : int }
      (** [epoch] increments across node restarts, so a client can detect
          that a replica crashed and lost its duplicate table. *)
  | Err of err

val pp_err : Format.formatter -> err -> unit
val pp_health : Format.formatter -> health -> unit
val pp_txn : Format.formatter -> txn -> unit

val strip_txn : req -> req
(** The request without its txn id: a retry of it is a fresh mutation.
    The mutation self-checks use it to show exactly-once needs the id. *)

val retryable : err -> bool
(** [true] for errors a client may safely retry ([Bad_crc]: the wire, not
    the request, was at fault; [Overloaded]: the node shed the request
    without touching state).  Definitive rejections ([Bad_key],
    [Too_large], [Read_only], ...) are not retryable. *)

val crc32 : string -> int32
(** IEEE 802.3 CRC-32. *)

val crc32_iov : Bi_net.Pkt.Iov.t -> int32
(** {!crc32} striding an iovec without materializing — bit-identical to
    [crc32 (Bytes.to_string (Pkt.Iov.materialize iov))]. *)

val valid_key : string -> bool
(** Keys: 1–24 chars from [a-z0-9_-]. *)

val encode_req : req -> bytes
(** Length-framed: a varint byte count followed by the Serde body. *)

val decode_req : bytes -> off:int -> (req * int) option
(** Decode one frame from a stream buffer; [None] if incomplete or
    malformed. *)

val encode_resp : resp -> bytes
val decode_resp : bytes -> off:int -> (resp * int) option

val encode_req_iov : req -> Bi_net.Pkt.Iov.t
(** Zero-copy {!encode_req}: varint header slice + body slice.
    Materializes to exactly [encode_req r]. *)

val encode_resp_iov : resp -> Bi_net.Pkt.Iov.t

val seal : id:int -> bytes -> bytes
(** Transport envelope: 4-byte request id, 4-byte CRC-32 of the whole
    envelope (CRC field zeroed during computation), then the body.  The
    resilient-store and shard worlds wrap every channel message in this
    so corrupted deliveries are dropped, not decoded. *)

val seal_iov : id:int -> Bi_net.Pkt.Iov.t -> Bi_net.Pkt.Iov.t
(** Zero-copy {!seal}: header slice + body iovec, CRC strided.
    Materializes to exactly [seal ~id body]. *)

val unseal : bytes -> (int * bytes) option
(** Check the envelope CRC (without copying) and split it into
    [(id, body)]; [None] on truncation or mismatch. *)

val max_value_size : int
(** Largest storable value (bounded by the filesystem's max file size). *)
