(** Whole-file operations, the one interface the node's persistence is
    written against.  {!Node_core.file_store} (one file per key, a CRC
    header before the value) and {!Journal.file_sink} (the redo journal
    and its checkpoint dance) are each written once over a [t]; only
    the backend differs between the code the [cr] suite crash-explores
    ({!of_fs}, straight onto a mounted filesystem) and the code netd
    runs ({!of_usys}, every operation a marshalled syscall).  Both backends
    issue the same filesystem transactions for each operation, so a
    script leaves byte-identical disks through either.

    Every operation reports failures as [Protocol.Io]. *)

type t = {
  read : string -> (string option, Protocol.err) result;
      (** The whole file; [Ok None] when it is absent. *)
  write : string -> string -> (unit, Protocol.err) result;
      (** [write path data]: create [path] if absent, truncate it, write
          [data]. *)
  append : string -> string -> (unit, Protocol.err) result;
      (** Durable append: create [path] if absent, write at its end,
          sync. *)
  sync : string -> (unit, Protocol.err) result;
      (** Make every completed operation durable ([path] must exist). *)
  remove : string -> (bool, Protocol.err) result;
      (** Unlink; [Ok false] when [path] was absent. *)
  rename : src:string -> dst:string -> (unit, Protocol.err) result;
  exists : string -> (bool, Protocol.err) result;
  list : string -> (string list, Protocol.err) result;
      (** The names in a directory. *)
}

val of_fs : Bi_fs.Fs.t -> t
(** Over a directly mounted filesystem.  [write] is resolve or create,
    [truncate_ino], [write_ino]; [append] writes at the end, then
    [Fs.fsync]; [sync] is [Fs.fsync]. *)

val of_usys : Bi_kernel.Usys.t -> t
(** Over the syscall interface.  [write] is [open(create, trunc)],
    [write], [close]; [read] is [open], 8 KiB [read]s up to the first
    short one (a short read ends the file, per [Fs_spec.Read]), [close];
    [sync] is [open], [fsync], [close].  [append] keeps one fd open across
    calls: the first append to a path opens it (creating it), [fstat]s
    and [seek]s to the end, and every append is then [write] + [fsync].
    Any other operation on that path closes the fd first.  Not safe for
    concurrent use: callers serialize, as netd does under its data-path
    mutex. *)
