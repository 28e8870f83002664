(** Write-ahead log: crash-safe multi-block transactions.

    The filesystem's persistence story (the "Filesystem" row of the paper's
    Table 2 requires crash safety, not just an API).  A transaction buffers
    whole-block writes; [commit] makes them atomic with the classic
    protocol:

    + write each (target, data) record into the log region and flush;
    + write the commit header naming the record count and flush — this is
      the {e commit point};
    + install the records at their home blocks and flush;
    + clear the header and flush.

    {!recover} (run by mount) replays a committed log and clears an
    uncommitted one, so a crash at {e any} write boundary yields either the
    old state or the new state — the property the crash VCs enumerate. *)

type t

val log_blocks : int
(** Blocks reserved for the log, header included. *)

val max_records : int
(** Blocks a single transaction may touch. *)

val create : Block_dev.t -> header_block:int -> t
(** Attach to a device; the log occupies
    [[header_block, header_block + log_blocks)]. *)

val recover : t -> int
(** Replay a committed log / discard a torn one.  Returns the number of
    records replayed. *)

type txn

val begin_txn : t -> txn

val txn_read : txn -> int -> bytes
(** Read through the transaction (sees its own buffered writes). *)

val txn_write : txn -> int -> bytes -> unit
(** Buffer a whole-block write.  Raises [Invalid_argument] beyond
    {!max_records} distinct blocks. *)

val txn_dirty : txn -> bool
(** Whether the transaction has buffered a write (reads through a clean
    one see only committed blocks). *)

val commit : txn -> unit
(** Run the commit protocol.  After return the writes are durable. *)

val abort : txn -> unit
(** Drop the buffered writes. *)
