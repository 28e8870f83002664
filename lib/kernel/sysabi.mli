(** The system-call ABI: request/response types and their wire encoding.

    Section 3 of the paper derives three verification obligations for the
    syscall mechanism; the first is {e marshalling}: "calling read results
    in its parameters and return values being correctly marshalled across
    the user- and kernel-space boundary.  We can prove that values
    correctly round-trip through serialization and deserialization."

    This module is that obligation made executable: every request and
    response has a byte-level encoding, the kernel's dispatcher really
    routes each syscall through [encode_request] → [decode_request] (and
    the response back through its codec), and the VC suite proves the
    round-trip for the whole request/response universe. *)

type err =
  | E_badf  (** Bad file descriptor. *)
  | E_noent
  | E_exists
  | E_inval
  | E_nomem
  | E_notdir
  | E_isdir
  | E_notempty
  | E_nospace
  | E_toolarge
  | E_again  (** Non-blocking operation would block. *)
  | E_nosys
  | E_child  (** No such child to wait for. *)
  | E_srch  (** No such process/thread. *)
  | E_conn  (** Connection error. *)
  | E_fault  (** Bad user memory address. *)

type request =
  (* processes *)
  | Getpid
  | Gettid
  | Yield
  | Exit of int
  | Spawn of { prog : string; arg : string }
  | Wait of int
  | Kill of { pid : int; signal : int }
  (* memory *)
  | Mmap of { bytes : int }
  | Munmap of { va : int64 }
  | Mresolve of { va : int64 }
  (* filesystem *)
  | Open of { path : string; create : bool; trunc : bool }
      (** [trunc] empties an existing file (O_TRUNC); on a directory it
          fails with [E_isdir]. *)
  | Close of { fd : int }
  | Read of { fd : int; len : int }
  | Write of { fd : int; data : string }
  | Seek of { fd : int; off : int }
  | Fstat of { fd : int }
  | Mkdir of { path : string }
  | Unlink of { path : string }
  | Rmdir of { path : string }
  | Readdir of { path : string }
  | Fsync of { fd : int }
  (* threads and synchronization *)
  | Thread_create of { entry : int }
  | Thread_join of { tid : int }
      (** [E_inval] when [tid] is the caller's own thread. *)
  | Futex_wait of { va : int64; expected : int64 }
  | Futex_wake of { va : int64; count : int }
  (* network *)
  | Udp_bind of { port : int }
  | Udp_send of { dst_ip : int32; dst_port : int; src_port : int; data : string }
  | Udp_recv of { port : int; blocking : bool }
      (** [E_inval] on a port that is not bound, blocking or not. *)
  | Tcp_listen of { port : int }
  | Tcp_connect of { ip : int32; port : int }
  | Tcp_accept of { port : int; blocking : bool; timeout : int }
      (** [timeout] bounds a blocking accept, in ticks: with no connection
          pending after that many ticks the call returns [E_again].  [0]
          means no deadline; a negative timeout is [E_inval].  A
          non-blocking accept ignores it.  An accept on a port with no
          listener is [E_inval]. *)
  | Tcp_send of { conn : int; data : string }
  | Tcp_recv of { conn : int; blocking : bool; timeout : int }
      (** [timeout] as for [Tcp_accept]: a blocking recv returns data the
          tick it arrives, [""] once the peer has closed, and [E_again]
          when [timeout] ticks pass with neither. *)
  | Tcp_close of { conn : int }
  (* pipes (extension) *)
  | Pipe
  (* memory protection (extension) *)
  | Mprotect of { va : int64; writable : bool; executable : bool }
  (* rename (extension) *)
  | Rename of { src : string; dst : string }
  (* misc *)
  | Log of string
  | Sleep of int
  | Now

type response =
  | R_unit
  | R_int of int
  | R_i64 of int64
  | R_data of string
  | R_names of string list
  | R_stat of { dir : bool; size : int }
  | R_dgram of { ip : int32; port : int; data : string }
  | R_pair of int * int  (** e.g. the two ends of a pipe. *)
  | R_err of err

val encode_request : request -> bytes
val decode_request : bytes -> request option
val encode_response : response -> bytes
val decode_response : bytes -> response option

val equal_request : request -> request -> bool
val equal_response : response -> response -> bool

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
val pp_err : Format.formatter -> err -> unit

val sample_request : Bi_core.Gen.t -> request
(** Generator covering every constructor (for the marshalling VCs). *)

val sample_response : Bi_core.Gen.t -> response

val vcs : unit -> Bi_core.Vc.t list
(** Marshalling obligations: per-constructor round-trip VCs for requests
    and responses, plus rejection of truncated/garbage buffers. *)
