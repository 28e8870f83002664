(** The client application contract (paper Section 3).

    An abstract model of the system as one process perceives it: the
    filesystem as a path-to-contents map ({!Bi_fs.Fs_spec}), per-process
    file descriptors with offsets, and the process's virtual address
    space as a bump-allocated set of regions.  Each system call is a
    transition; the paper's [read_spec] example is literally the [Read]
    case here:

    {v read_len == min(len, size - offset)
       data     == contents[offset .. offset+read_len]
       offset'  == offset + read_len v}

    {!check_trace} replays a (pid, request, response) trace recorded by a
    running kernel and confirms every {e checkable} response matches the
    spec's prediction.  Scheduling-dependent responses (wait, futex, the
    network) are structurally validated but not value-predicted; see
    DESIGN.md for the covered subset. *)

type state

val init : next_pid:int -> state
(** A system about to create its first process as [next_pid]. *)

type verdict =
  | Checked  (** Spec predicted the response and it matched. *)
  | Unchecked  (** Response is scheduling-dependent; shape-validated only. *)

val step :
  state ->
  pid:int ->
  Sysabi.request ->
  Sysabi.response ->
  (state * verdict, string) result
(** Advance the spec through one observed syscall; [Error] explains a
    contract violation. *)

val check_trace :
  next_pid:int ->
  (int * Sysabi.request * Sysabi.response) list ->
  (int * int, string) result
(** Replay a whole kernel trace; returns [(checked, unchecked)] counts. *)
