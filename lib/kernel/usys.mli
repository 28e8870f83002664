(** User-space system interface — the paper's [Sys] type.

    Typed wrappers over {!Kernel.syscall}, one per system call, shaped like
    the paper's example:

    {v
    pub fn read(sys: &mut Sys, fd: usize, buffer: &mut [u8]) -> read_len
      requires sys.view().files[fd].locked
      ensures  read_spec(old(sys).view(), sys.view(), ...)
    v}

    Each wrapper's contract is the corresponding {!Sys_spec} transition;
    the refinement tests replay recorded syscall traces against that spec.
    Errors are surfaced as [result]s rather than a global errno. *)

type t = Kernel.sys

val getpid : t -> int
val gettid : t -> int
val yield : t -> unit

val exit : t -> int -> 'a
(** Never returns. *)

val spawn : t -> prog:string -> arg:string -> (int, Sysabi.err) result
val wait : t -> int -> (int, Sysabi.err) result
val kill : t -> pid:int -> signal:int -> (unit, Sysabi.err) result

val mmap : t -> bytes:int -> (int64, Sysabi.err) result
val munmap : t -> va:int64 -> (unit, Sysabi.err) result
val mresolve : t -> va:int64 -> (int64, Sysabi.err) result

val openf :
  t -> ?create:bool -> ?trunc:bool -> string -> (int, Sysabi.err) result
val close : t -> int -> (unit, Sysabi.err) result
val read : t -> fd:int -> len:int -> (string, Sysabi.err) result
val write : t -> fd:int -> string -> (int, Sysabi.err) result
val seek : t -> fd:int -> off:int -> (int, Sysabi.err) result
val fstat : t -> fd:int -> (bool * int, Sysabi.err) result
(** [(is_dir, size)]. *)

val mkdir : t -> string -> (unit, Sysabi.err) result
val unlink : t -> string -> (unit, Sysabi.err) result
val rmdir : t -> string -> (unit, Sysabi.err) result
val readdir : t -> string -> (string list, Sysabi.err) result
val fsync : t -> fd:int -> (unit, Sysabi.err) result

val thread_create : t -> (t -> unit) -> int
(** Registers the entry and issues [Thread_create]; the new thread gets
    its own [t] handle. *)

val thread_join : t -> int -> (unit, Sysabi.err) result
val futex_wait : t -> va:int64 -> expected:int64 -> (unit, Sysabi.err) result
(** [E_again] when the word's value differs from [expected]. *)

val futex_wake : t -> va:int64 -> count:int -> int
(** Number of threads woken. *)

val load : t -> va:int64 -> (int64, Sysabi.err) result
(** A memory {e load instruction}: translated by the MMU through the
    process's verified page table.  Not a system call — this is the
    hardware half of the paper's execution model. *)

val store : t -> va:int64 -> int64 -> (unit, Sysabi.err) result
(** A memory store instruction, as {!load}. *)

val udp_bind : t -> int -> (unit, Sysabi.err) result
val udp_send :
  t -> dst_ip:int32 -> dst_port:int -> src_port:int -> string ->
  (unit, Sysabi.err) result
val udp_recv :
  t -> ?blocking:bool -> int -> (int32 * int * string, Sysabi.err) result

val tcp_listen : t -> int -> (unit, Sysabi.err) result
val tcp_connect : t -> ip:int32 -> port:int -> (int, Sysabi.err) result
val tcp_accept : t -> ?blocking:bool -> int -> (int, Sysabi.err) result
(** A blocking accept (the default) parks until a connection is pending;
    a non-blocking one returns [E_again] when none is. *)

val tcp_send : t -> conn:int -> string -> (int, Sysabi.err) result

val tcp_recv :
  t -> ?blocking:bool -> ?timeout:int -> int -> (string, Sysabi.err) result
(** An empty string means the peer closed.  A blocking recv parks until
    data arrives or the peer closes, or for at most [timeout] ticks when
    [timeout > 0], then returns [E_again]. *)

val tcp_close : t -> conn:int -> (unit, Sysabi.err) result

val pipe : t -> (int * int, Sysabi.err) result
(** [(read_fd, write_fd)].  Reading an empty pipe blocks until a writer
    delivers data or every write end closes (then [""] = EOF); writing
    with no read end open fails with [E_conn]. *)

val mprotect :
  t -> va:int64 -> writable:bool -> executable:bool ->
  (unit, Sysabi.err) result
(** Change the protection of a whole mmapped region (by base address);
    goes through the verified page table's [protect], then invalidates
    the region in the process's TLB and paging-structure cache. *)

val rename : t -> src:string -> dst:string -> (unit, Sysabi.err) result

val log : t -> string -> unit
val sleep : t -> int -> unit
val now : t -> int64
