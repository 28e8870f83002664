(** User-level (green) threads.

    NrOS "provides a user-level thread scheduler" in user space (paper
    Section 4.1), and the paper notes no one has verified a threading
    library (Section 6).  This is a cooperative scheduler built on OCaml
    effects, independent of the kernel: green threads multiplex on one
    kernel thread, so a blocking {e system call} suspends the whole group
    (exactly the classic N:1 threading model), while {!yield} switches
    between green threads for free.

    Deterministic round-robin scheduling makes the library's properties
    (completion, join visibility, exception isolation) exhaustively
    testable. *)

type 'a handle

exception Deadlock
(** [join] with no runnable thread able to finish the target. *)

val run : (unit -> 'a) -> 'a
(** Run a main function with a fresh scheduler; returns its result once
    {e all} spawned threads have finished. *)

val spawn : (unit -> 'a) -> 'a handle
(** Start a green thread (only inside {!run}). *)

val yield : unit -> unit
(** Let the next runnable green thread execute. *)

val join : 'a handle -> 'a
(** Wait for a thread and return its result.  Re-raises the thread's
    exception if it died. *)
