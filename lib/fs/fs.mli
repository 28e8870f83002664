(** The filesystem: a crash-safe, on-disk inode filesystem.

    One of the services the paper says a verified OS must provide
    (Section 1, Table 2 "Filesystem").  On-disk layout, all in 512-byte
    blocks:

    {v
    block 0        superblock
    blocks 1..31   write-ahead log (Wal)
    block 32       inode bitmap
    block 33       data-block bitmap
    blocks 34..65  inode table (256 inodes, 64 bytes each)
    blocks 66..    data blocks
    v}

    Files use 10 direct block pointers plus one single-indirect block
    (max file size 70,656 bytes).  Directories are files holding 32-byte
    entries (u32 inode number + 27-byte name).  Every metadata mutation is
    one {!Wal} transaction, so any crash leaves the filesystem in a state
    that {!mount}'s recovery makes consistent — the property the crash VCs
    in the test suite enumerate write-by-write.

    Name cache.  Like Linux's dcache, a mounted filesystem keeps a table
    from (directory inode, name) to child inode, so resolving a path it
    has seen skips the directory scans.  Four rules keep it exact:
    - it is volatile: it lives in memory, never on disk;
    - it is per mount: each [t] owns one, {!mkfs} and {!mount} start it
      empty, and a mount assumes it is the only writer of its device;
    - it is filled from committed state only: a lookup fills it only
      while its transaction has no writes yet;
    - adding or removing a directory entry drops that name before the
      block is touched, so an aborted transaction, or a commit that
      raises, costs a later miss, never a stale answer.
    A hit reads no block, so the cache removes reads, never writes:
    device write streams and crash states are the same as without it. *)

type t

type error =
  | Not_found
  | Exists
  | Not_dir
  | Is_dir
  | Not_empty  (** rmdir of a non-empty directory. *)
  | No_space
  | Too_large  (** Write past the maximum file size. *)
  | Invalid_path

type kind = File | Dir

type stat = { kind : kind; size : int; ino : int }

val pp_error : Format.formatter -> error -> unit

val max_file_size : int

val mkfs : Block_dev.t -> t
(** Format the device and return a mounted filesystem with an empty
    root directory. *)

val mount : Block_dev.t -> t
(** Attach to a formatted device, running log recovery.  Raises
    [Invalid_argument] if the superblock is unrecognisable. *)

val create : t -> string -> (unit, error) result
(** Create an empty file.  Fails with [Exists], [Not_found] (parent),
    [Not_dir] (parent not a directory) or [Invalid_path]. *)

val mkdir : t -> string -> (unit, error) result

val unlink : t -> string -> (unit, error) result
(** Remove a file, freeing its blocks.  [Is_dir] on directories. *)

val rmdir : t -> string -> (unit, error) result
(** Remove an empty directory. *)

val rename : t -> src:string -> dst:string -> (unit, error) result
(** Atomically move a {e file} to a new path (one WAL transaction).
    Fails with [Exists] if [dst] exists, [Is_dir] on directories (cycle
    safety is the caller's problem we chose not to have). *)

val readdir : t -> string -> (string list, error) result
(** Entry names, sorted. *)

val stat : t -> string -> (stat, error) result

val resolve : t -> string -> (int, error) result
(** Path to inode number (the filesystem's "open"). *)

val stat_ino : t -> int -> (stat, error) result

val read_ino : t -> ino:int -> off:int -> len:int -> (bytes, error) result
(** Read up to [len] bytes at [off]; short reads at end of file; reading
    at or past the size returns empty. *)

val write_ino : t -> ino:int -> off:int -> bytes -> (unit, error) result
(** Write, extending the file as needed (gap blocks zero-filled). *)

val truncate_ino : t -> ino:int -> int -> (unit, error) result
(** Set the file size, freeing blocks beyond it. *)

val fsync : t -> unit
(** Durability barrier (mutations are already transactional; this flushes
    the device for read-path metadata too). *)

val free_data_blocks : t -> int
(** Unallocated data blocks (for no-space tests). *)
