(** The kernel: processes, threads, scheduling, system calls.

    This is the composition the paper's Section 1 asks of a verified OS —
    scheduler, memory management, filesystem, process management, threads
    and synchronization, network stack — wired over the {!Bi_hw.Machine}
    hardware model.  User programs are OCaml functions that invoke system
    calls by performing an effect; the kernel's run loop is the handler,
    so a "context switch" really is capturing one user continuation and
    resuming another (the paper's observation that processes see a context
    switch "as just another interleaving of threads").

    The syscall path honours the paper's marshalling obligation: every
    request is serialized and re-parsed at the boundary (and the response
    on the way back), so the {!Sysabi} codecs are on the hot path, not
    just under test.

    Cooperative atomicity: a thread runs uninterrupted between system
    calls.  This gives the data-race-freedom obligation of Section 3 by
    construction for kernel-held buffers; the test suite still checks the
    fd-offset protocol under adversarial interleavings. *)

type t

type sys
(** The per-thread system handle — the paper's [Sys] type that
    "encapsulates the syscall interface".  Threads receive it at start
    and pass it to {!syscall} (or the {!Usys} wrappers). *)

exception Deadlock of string
(** No thread is runnable and no time-driven event can unblock one. *)

val create :
  ?cores:int ->
  ?mem_bytes:int ->
  ?disk_sectors:int ->
  ?ip:int32 ->
  unit ->
  t
(** Build a machine, format its disk, and boot a kernel on it.
    Default IP is 10.0.0.1. *)

val machine : t -> Bi_hw.Machine.t
val fs : t -> Bi_fs.Fs.t
val stack : t -> Bi_net.Stack.t

val register_program : t -> string -> (sys -> string -> unit) -> unit
(** Install a named program image; [Spawn] refers to these names (entry
    points are named, not marshalled — like an ELF path in execve). *)

val spawn : ?parent:int -> t -> prog:string -> arg:string -> (int, Sysabi.err) result
(** Create a process running a registered program; returns its pid.
    Usable from outside the kernel (boot) — inside user code use the
    [Spawn] syscall.  [parent] defaults to 0 (the kernel).  [Error E_nomem]
    when there is no frame left for its page-table root. *)

val run : t -> unit
(** Drive the scheduler until every thread has finished.  Advances
    virtual time (timer ticks, network retransmission) whenever all
    threads block.  Raises {!Deadlock} if blocked threads can never make
    progress. *)

val syscall : sys -> Sysabi.request -> Sysabi.response
(** Perform a system call (from user code only). *)

val sys_pid : sys -> int
val sys_tid : sys -> int

val sys_kernel : sys -> t
(** The kernel behind a handle (used by the {!Usys} wrappers). *)

val user_load : sys -> va:int64 -> (int64, Sysabi.err) result
(** A user-mode load instruction: MMU-translated through the calling
    process's page table.  Not a syscall. *)

val user_store : sys -> va:int64 -> int64 -> (unit, Sysabi.err) result
(** A user-mode store instruction. *)

val register_entry : t -> (sys -> unit) -> int
(** Register a thread entry point; returns the handle [Thread_create]
    takes.  The {!Usys.thread_create} wrapper does this for you. *)

val connect : t -> t -> unit
(** Wire two kernels' NICs together (a two-machine network). *)

val run_pair : ?on_tick:(unit -> unit) -> t -> t -> unit
(** Co-schedule two kernels (alternating quanta, shared virtual time)
    until both are idle — used for client/server experiments.  [on_tick]
    runs on every idle tick {e before} frames move across the wire, so a
    fault adversary (e.g. {!Bi_fault.Faulty_link.step_link} over two
    {e unconnected} NICs) can take tx frames before the delivery pass
    would discard them. *)

val set_trace : t -> bool -> unit
(** Record (pid, request, response) for every syscall.  A call that
    parks is recorded when it returns, with the response its thread gets;
    a call whose thread is killed while parked is not recorded. *)

val trace : t -> (int * Sysabi.request * Sysabi.response) list
(** Recorded events, oldest first. *)

val serial_output : t -> string
(** Everything written via [Log]. *)

val process_count : t -> int
(** Live (non-reaped) processes. *)
