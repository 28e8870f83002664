module Machine = Bi_hw.Machine
module Fs = Bi_fs.Fs
module Stack = Bi_net.Stack
module Nic = Bi_hw.Device.Nic

type sys = { s_pid : int; s_tid : int; kernel : t }

and fd_entry =
  (* The fd names a *path*, matching Sys_spec's contract: operations on an
     fd whose path has been unlinked or renamed away fail with ENOENT
     (found by the randomized contract test: storing the inode number lets
     a reused inode alias a different file). *)
  | File_fd of { path : string; mutable offset : int }
  | Pipe_rd of pipe
  | Pipe_wr of pipe

and pipe = {
  mutable pdata : string; (* buffered, not yet read *)
  mutable rd_open : bool;
  mutable wr_open : bool;
}

and pstate = Alive | Zombie of int

and process = {
  pid : int;
  parent : int;
  aspace : Address_space.t;
  fds : (int, fd_entry) Hashtbl.t;
  mutable next_fd : int;
  mutable pstate : pstate;
  mutable tids : int list;
  mutable conns : int list; (* TCP connections opened or accepted, not closed *)
  mutable ports : int list; (* TCP ports listened on *)
}

and resume =
  | Start of (unit -> unit)
  | Resume of
      Sysabi.request option
      * (Sysabi.response, unit) Effect.Deep.continuation
      * Sysabi.response
      (* [Some req]: the call was parked, and is traced when it returns. *)

and tstate =
  | Ready of resume
  | Blocked of
      Sysabi.request * int * (Sysabi.response, unit) Effect.Deep.continuation
      (* The call the thread is parked in and its deadline tick ([max_int]:
         none). *)
  | Finished

and thread = { tid : int; t_pid : int; mutable tstate : tstate }

and t = {
  machine : Machine.t;
  fs : Fs.t;
  stack : Stack.t;
  sched : Scheduler.t;
  futexes : Futex.t;
  processes : (int, process) Hashtbl.t;
  threads : (int, thread) Hashtbl.t;
  programs : (string, sys -> string -> unit) Hashtbl.t;
  entries : (int, sys -> unit) Hashtbl.t;
  mutable next_pid : int;
  mutable next_tid : int;
  mutable next_entry : int;
  mutable tracing : bool;
  mutable trace_log : (int * Sysabi.request * Sysabi.response) list;
  mutable peer : t option; (* for run_pair *)
}

type _ Effect.t += Syscall : (sys * Sysabi.request) -> Sysabi.response Effect.t

exception Deadlock of string

let disk_sectors = 4096

let create ?(mem_bytes = 32 * 1024 * 1024)
    ?(ip = Bi_net.Ip.addr_of_string "10.0.0.1") () =
  let machine = Machine.create ~mem_bytes ~disk_sectors in
  let fs = Fs.mkfs (Bi_fs.Block_dev.of_disk machine.Machine.disk) in
  let stack = Stack.create ~nic:machine.Machine.nic ~ip in
  {
    machine;
    fs;
    stack;
    sched = Scheduler.create ();
    futexes = Futex.create ();
    processes = Hashtbl.create 16;
    threads = Hashtbl.create 32;
    programs = Hashtbl.create 8;
    entries = Hashtbl.create 8;
    next_pid = 1;
    next_tid = 1;
    next_entry = 1;
    tracing = false;
    trace_log = [];
    peer = None;
  }

let machine t = t.machine
let fs t = t.fs
let stack t = t.stack
let sys_tid s = s.s_tid
let sys_kernel s = s.kernel

let register_program t name f = Hashtbl.replace t.programs name f

let register_entry t f =
  let h = t.next_entry in
  t.next_entry <- h + 1;
  Hashtbl.replace t.entries h f;
  h

let set_trace t on = t.tracing <- on
let trace t = List.rev t.trace_log
let serial_output t = Bi_hw.Device.Serial.output t.machine.Machine.serial

(* The machine's timer is the kernel's one clock: idle ticks advance it. *)
let now t = Int64.to_int (Bi_hw.Device.Timer.now t.machine.Machine.timer)

let process_count t = Hashtbl.length t.processes

let get_process t pid = Hashtbl.find_opt t.processes pid
let get_thread t tid = Hashtbl.find t.threads tid

let enqueue_ready t tid = Scheduler.enqueue t.sched tid

(* ------------------------------------------------------------------ *)
(* Thread and process creation                                         *)

(* The effect handler every user thread runs under. *)
let rec handler t (th : thread) =
  {
    Effect.Deep.retc = (fun () -> finish_thread t th);
    exnc =
      (fun e ->
        Bi_hw.Device.Serial.write_string t.machine.Machine.serial
          (Printf.sprintf "[kernel] thread %d crashed: %s\n" th.tid
             (Printexc.to_string e));
        finish_thread t th);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Syscall (_, req) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                dispatch t th req
                  (k : (Sysabi.response, unit) Effect.Deep.continuation))
        | _ -> None);
  }

and start_thread t ~pid entry =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th = { tid; t_pid = pid; tstate = Finished } in
  Hashtbl.replace t.threads tid th;
  (match get_process t pid with
  | Some p -> p.tids <- tid :: p.tids
  | None -> ());
  let s = { s_pid = pid; s_tid = tid; kernel = t } in
  let body () = Effect.Deep.match_with entry s (handler t th) in
  th.tstate <- Ready (Start body);
  enqueue_ready t tid;
  tid

and spawn ?(parent = 0) t ~prog ~arg =
  match Hashtbl.find_opt t.programs prog with
  | None -> Error Sysabi.E_noent
  | Some f -> (
      match
        Address_space.create ~mem:t.machine.Machine.mem
          ~frames:t.machine.Machine.frames
      with
      | exception Bi_hw.Frame_alloc.Out_of_frames -> Error Sysabi.E_nomem
      | aspace ->
          let pid = t.next_pid in
          t.next_pid <- pid + 1;
          let p =
            {
              pid;
              parent;
              aspace;
              fds = Hashtbl.create 8;
              next_fd = 3;
              pstate = Alive;
              tids = [];
              conns = [];
              ports = [];
            }
          in
          Hashtbl.replace t.processes pid p;
          ignore (start_thread t ~pid (fun s -> f s arg) : int);
          Ok pid)

(* Answer the call [th] is parked in; it returns when next scheduled. *)
and wake t th resp =
  match th.tstate with
  | Blocked (req, _, k) ->
      th.tstate <- Ready (Resume (Some req, k, resp));
      enqueue_ready t th.tid
  | Ready _ | Finished -> ()

and wake_joiners t tid =
  Hashtbl.iter
    (fun _ other ->
      match other.tstate with
      | Blocked (Sysabi.Thread_join { tid = waited }, _, _) when waited = tid ->
          wake t other Sysabi.R_unit
      | _ -> ())
    t.threads

and finish_thread t th =
  th.tstate <- Finished;
  Futex.remove_thread t.futexes ~tid:th.tid;
  wake_joiners t th.tid;
  (* Last thread of the process: the process exits with code 0 unless it
     already became a zombie via Exit. *)
  match get_process t th.t_pid with
  | None -> ()
  | Some p ->
      let alive =
        List.exists
          (fun tid ->
            tid <> th.tid
            &&
            match (get_thread t tid).tstate with
            | Finished -> false
            | Ready _ | Blocked _ -> true)
          p.tids
      in
      if (not alive) && p.pstate = Alive then make_zombie t p 0

and make_zombie t p code =
  p.pstate <- Zombie code;
  Address_space.destroy p.aspace;
  Hashtbl.iter
    (fun _ e ->
      match e with
      | Pipe_rd pipe -> pipe.rd_open <- false
      | Pipe_wr pipe -> pipe.wr_open <- false
      | File_fd _ -> ())
    p.fds;
  Hashtbl.reset p.fds;
  (* Its TCP endpoints die with it, as its fds do: a peer sees end of
     stream, and the port stops listening unless a live process still
     listens there. *)
  List.iter
    (fun conn ->
      try Stack.tcp_close t.stack conn with Invalid_argument _ -> ())
    p.conns;
  p.conns <- [];
  List.iter
    (fun port ->
      let listened =
        Hashtbl.fold
          (fun _ q acc -> acc || (q.pstate = Alive && List.mem port q.ports))
          t.processes false
      in
      if not listened then Stack.tcp_unlisten t.stack port)
    p.ports;
  p.ports <- [];
  (* Wake a parent blocked in wait(pid).  Exactly one waiter collects the
     exit code — the child is reaped at that point, so the others get
     [E_child], same as a wait issued after the reap.  (Previously every
     parked waiter was handed the code: a misdelivered wakeup, found by
     the blocking-syscall audit.)  Lowest tid wins, deterministically. *)
  let waiters =
    Hashtbl.fold
      (fun _ th acc ->
        match th.tstate with
        | Blocked (Sysabi.Wait waited, _, _) when waited = p.pid -> th :: acc
        | _ -> acc)
      t.threads []
    |> List.sort (fun a b -> compare a.tid b.tid)
  in
  match waiters with
  | [] -> ()
  | first :: rest ->
      wake t first (Sysabi.R_int code);
      reap t p;
      List.iter (fun th -> wake t th (Sysabi.R_err Sysabi.E_child)) rest

(* Collect a zombie: drop its threads and its record, so nothing of it
   stays reachable (its futex queues went with its last thread, see
   [Futex.remove_thread]).  pids and tids are never reused, so a later
   [Wait] or [Kill] of it finds no record and answers [E_child] or
   [E_srch], and a join of one of its threads sees an old tid. *)
and reap t p =
  List.iter (Hashtbl.remove t.threads) p.tids;
  Hashtbl.remove t.processes p.pid

and kill_process t p code =
  (* Discard every thread of the process; parked continuations are
     abandoned (their stacks are reclaimed by the GC). *)
  let killed =
    List.filter
      (fun tid ->
        let th = get_thread t tid in
        let was_live =
          match th.tstate with
          | Finished -> false
          | Ready _ | Blocked _ ->
              th.tstate <- Finished;
              true
        in
        Futex.remove_thread t.futexes ~tid;
        Scheduler.remove t.sched tid;
        was_live)
      p.tids
  in
  (* A killed thread never reaches [finish_thread], so its joiners must
     be woken here or they stay parked forever — the lost wakeup found by
     the blocking-syscall audit (a [Kill]/[Exit] landing on a process one
     of whose threads is being joined from outside).  Same-process
     joiners were just set [Finished] above and no longer match. *)
  List.iter (wake_joiners t) killed;
  if p.pstate = Alive then make_zombie t p code

(* ------------------------------------------------------------------ *)
(* Syscall implementation                                              *)

and fd_lookup p fd = Hashtbl.find_opt p.fds fd

and fs_err (e : Fs.error) : Sysabi.err =
  match e with
  | Fs.Not_found -> Sysabi.E_noent
  | Fs.Exists -> Sysabi.E_exists
  | Fs.Not_dir -> Sysabi.E_notdir
  | Fs.Is_dir -> Sysabi.E_isdir
  | Fs.Not_empty -> Sysabi.E_notempty
  | Fs.No_space -> Sysabi.E_nospace
  | Fs.Too_large -> Sysabi.E_toolarge
  | Fs.Invalid_path -> Sysabi.E_inval

(* One system call as one transition: [Some resp] when the call completes
   now, [None] when the thread must block.  A parked call is asked again
   on every idle tick (see [try_unblock]), so this is also what decides
   when, and with what, it returns. *)
and handle t th (req : Sysabi.request) : Sysabi.response option =
  let p =
    match get_process t th.t_pid with
    | Some p -> p
    | None -> invalid_arg "kernel: thread without process"
  in
  let err e = Some (Sysabi.R_err e) in
  match req with
  | Sysabi.Getpid -> Some (Sysabi.R_int th.t_pid)
  | Sysabi.Gettid -> Some (Sysabi.R_int th.tid)
  | Sysabi.Yield -> Some Sysabi.R_unit
  | Sysabi.Now ->
      Some (Sysabi.R_i64 (Bi_hw.Device.Timer.now t.machine.Machine.timer))
  | Sysabi.Log msg ->
      Bi_hw.Device.Serial.write_string t.machine.Machine.serial (msg ^ "\n");
      Some Sysabi.R_unit
  | Sysabi.Exit _ -> None (* handled in dispatch *)
  | Sysabi.Spawn { prog; arg } -> (
      match spawn ~parent:th.t_pid t ~prog ~arg with
      | Ok pid -> Some (Sysabi.R_int pid)
      | Error e -> err e)
  | Sysabi.Wait pid -> (
      match get_process t pid with
      | None -> err Sysabi.E_child
      | Some child ->
          if child.parent <> th.t_pid then err Sysabi.E_child
          else begin
            match child.pstate with
            | Zombie code ->
                reap t child;
                Some (Sysabi.R_int code)
            | Alive -> None (* block *)
          end)
  | Sysabi.Kill { pid; signal } -> (
      match get_process t pid with
      | None -> err Sysabi.E_srch
      | Some target ->
          if target.pstate <> Alive then err Sysabi.E_srch
          else if signal = 0 then Some Sysabi.R_unit
          else begin
            kill_process t target (128 + signal);
            Some Sysabi.R_unit
          end)
  (* memory *)
  | Sysabi.Mmap { bytes } -> (
      match Address_space.mmap p.aspace ~bytes with
      | Ok va -> Some (Sysabi.R_i64 va)
      | Error e -> err e)
  | Sysabi.Munmap { va } -> (
      match Address_space.munmap p.aspace ~va with
      | Ok () -> Some Sysabi.R_unit
      | Error e -> err e)
  | Sysabi.Mresolve { va } -> (
      match Address_space.resolve p.aspace ~va with
      | Ok pa -> Some (Sysabi.R_i64 pa)
      | Error e -> err e)
  (* filesystem *)
  | Sysabi.Open { path; create; trunc } -> (
      let resolved =
        match Fs.resolve t.fs path with
        | Ok ino -> Ok ino
        | Error Fs.Not_found when create -> (
            match Fs.create t.fs path with
            | Ok () -> Fs.resolve t.fs path
            | Error e -> Error e)
        | Error e -> Error e
      in
      let opened =
        match resolved with
        | Ok ino when trunc -> Fs.truncate_ino t.fs ~ino 0
        | Ok (_ : int) -> Ok ()
        | Error e -> Error e
      in
      match opened with
      | Error e -> err (fs_err e)
      | Ok () ->
          let fd = p.next_fd in
          p.next_fd <- fd + 1;
          Hashtbl.replace p.fds fd (File_fd { path; offset = 0 });
          Some (Sysabi.R_int fd))
  | Sysabi.Close { fd } -> (
      match fd_lookup p fd with
      | None -> err Sysabi.E_badf
      | Some e ->
          (match e with
          | Pipe_rd pipe -> pipe.rd_open <- false
          | Pipe_wr pipe ->
              pipe.wr_open <- false (* blocked readers see EOF on unblock *)
          | File_fd _ -> ());
          Hashtbl.remove p.fds fd;
          Some Sysabi.R_unit)
  | Sysabi.Read { fd; len } -> (
      match fd_lookup p fd with
      | None -> err Sysabi.E_badf
      | Some (File_fd e) -> (
          match Fs.resolve t.fs e.path with
          | Error fe -> err (fs_err fe)
          | Ok ino -> (
              match Fs.read_ino t.fs ~ino ~off:e.offset ~len with
              | Ok data ->
                  e.offset <- e.offset + Bytes.length data;
                  Some (Sysabi.R_data (Bytes.to_string data))
              | Error fe -> err (fs_err fe)))
      | Some (Pipe_wr _) -> err Sysabi.E_badf
      | Some (Pipe_rd pipe) ->
          if String.length pipe.pdata > 0 then begin
            let n = min len (String.length pipe.pdata) in
            let chunk = String.sub pipe.pdata 0 n in
            pipe.pdata <-
              String.sub pipe.pdata n (String.length pipe.pdata - n);
            Some (Sysabi.R_data chunk)
          end
          else if not pipe.wr_open then Some (Sysabi.R_data "") (* EOF *)
          else None (* block until data or writer close *))
  | Sysabi.Write { fd; data } -> (
      match fd_lookup p fd with
      | None -> err Sysabi.E_badf
      | Some (File_fd e) -> (
          match Fs.resolve t.fs e.path with
          | Error fe -> err (fs_err fe)
          | Ok ino -> (
              match
                Fs.write_ino t.fs ~ino ~off:e.offset (Bytes.of_string data)
              with
              | Ok () ->
                  e.offset <- e.offset + String.length data;
                  Some (Sysabi.R_int (String.length data))
              | Error fe -> err (fs_err fe)))
      | Some (Pipe_rd _) -> err Sysabi.E_badf
      | Some (Pipe_wr pipe) ->
          if not pipe.rd_open then err Sysabi.E_conn (* EPIPE *)
          else begin
            pipe.pdata <- pipe.pdata ^ data;
            (* Parked readers are woken by the scheduler's unblock pass. *)
            Some (Sysabi.R_int (String.length data))
          end)
  | Sysabi.Seek { fd; off } -> (
      match fd_lookup p fd with
      | None -> err Sysabi.E_badf
      | Some (Pipe_rd _ | Pipe_wr _) -> err Sysabi.E_inval
      | Some (File_fd e) ->
          if off < 0 then err Sysabi.E_inval
          else begin
            e.offset <- off;
            Some (Sysabi.R_int off)
          end)
  | Sysabi.Fstat { fd } -> (
      match fd_lookup p fd with
      | None -> err Sysabi.E_badf
      | Some (Pipe_rd pipe) ->
          Some (Sysabi.R_stat { dir = false; size = String.length pipe.pdata })
      | Some (Pipe_wr pipe) ->
          Some (Sysabi.R_stat { dir = false; size = String.length pipe.pdata })
      | Some (File_fd e) -> (
          match Fs.stat t.fs e.path with
          | Ok { Fs.kind; size; _ } ->
              Some (Sysabi.R_stat { dir = kind = Fs.Dir; size })
          | Error fe -> err (fs_err fe)))
  | Sysabi.Mkdir { path } -> (
      match Fs.mkdir t.fs path with
      | Ok () -> Some Sysabi.R_unit
      | Error fe -> err (fs_err fe))
  | Sysabi.Unlink { path } -> (
      match Fs.unlink t.fs path with
      | Ok () -> Some Sysabi.R_unit
      | Error fe -> err (fs_err fe))
  | Sysabi.Rmdir { path } -> (
      match Fs.rmdir t.fs path with
      | Ok () -> Some Sysabi.R_unit
      | Error fe -> err (fs_err fe))
  | Sysabi.Readdir { path } -> (
      match Fs.readdir t.fs path with
      | Ok names -> Some (Sysabi.R_names names)
      | Error fe -> err (fs_err fe))
  | Sysabi.Fsync { fd } ->
      if Hashtbl.mem p.fds fd then begin
        Fs.fsync t.fs;
        Some Sysabi.R_unit
      end
      else err Sysabi.E_badf
  (* threads & sync *)
  | Sysabi.Thread_create { entry } -> (
      match Hashtbl.find_opt t.entries entry with
      | None -> err Sysabi.E_inval
      | Some f ->
          Hashtbl.remove t.entries entry;
          let tid = start_thread t ~pid:th.t_pid f in
          Some (Sysabi.R_int tid))
  | Sysabi.Thread_join { tid } when tid = th.tid ->
      (* The running thread's state reads [Finished] until it parks. *)
      err Sysabi.E_inval
  | Sysabi.Thread_join { tid } -> (
      match Hashtbl.find_opt t.threads tid with
      | None when tid > 0 && tid < t.next_tid ->
          Some Sysabi.R_unit (* a thread of a reaped process *)
      | None -> err Sysabi.E_srch
      | Some other -> (
          match other.tstate with
          | Finished -> Some Sysabi.R_unit
          | Ready _ | Blocked _ -> None (* block *)))
  | Sysabi.Futex_wait { va; expected } -> (
      match Address_space.load_u64 p.aspace ~va with
      | Error e -> err e
      | Ok v -> if v <> expected then err Sysabi.E_again else None (* block *))
  | Sysabi.Futex_wake { va; count } ->
      let woken = Futex.wake t.futexes ~pid:th.t_pid ~va ~count in
      List.iter (fun tid -> wake t (get_thread t tid) Sysabi.R_unit) woken;
      Some (Sysabi.R_int (List.length woken))
  (* network *)
  | Sysabi.Udp_bind { port } -> (
      match Stack.udp_bind t.stack port with
      | () -> Some Sysabi.R_unit
      | exception Invalid_argument _ -> err Sysabi.E_exists)
  | Sysabi.Udp_send { dst_ip; dst_port; src_port; data } ->
      Stack.udp_send t.stack ~dst_ip ~dst_port ~src_port
        (Bytes.of_string data);
      Some Sysabi.R_unit
  | Sysabi.Udp_recv { port; _ } when not (Stack.udp_is_bound t.stack port) ->
      err Sysabi.E_inval
  | Sysabi.Udp_recv { port; blocking } -> (
      match Stack.udp_recv t.stack port with
      | Some (ip, sport, data) ->
          Some
            (Sysabi.R_dgram { ip; port = sport; data = Bytes.to_string data })
      | None -> if blocking then None else err Sysabi.E_again)
  | Sysabi.Tcp_listen { port } ->
      Stack.tcp_listen t.stack port;
      if not (List.mem port p.ports) then p.ports <- port :: p.ports;
      Some Sysabi.R_unit
  | Sysabi.Tcp_connect { ip; port } ->
      let conn = Stack.tcp_connect t.stack ~dst_ip:ip ~dst_port:port in
      p.conns <- conn :: p.conns;
      Some (Sysabi.R_int conn)
  | Sysabi.Tcp_recv { timeout; _ } when timeout < 0 -> err Sysabi.E_inval
  | Sysabi.Tcp_accept { port; _ } when not (Stack.tcp_is_listening t.stack port)
    ->
      err Sysabi.E_inval
  | Sysabi.Tcp_accept { port; blocking } -> (
      match Stack.tcp_accept t.stack port with
      | Some conn ->
          p.conns <- conn :: p.conns;
          Some (Sysabi.R_int conn)
      | None -> if blocking then None else err Sysabi.E_again)
  | Sysabi.Tcp_send { conn; data } -> (
      match Stack.tcp_send t.stack conn (Bytes.of_string data) with
      | () -> Some (Sysabi.R_int (String.length data))
      | exception Invalid_argument _ -> err Sysabi.E_badf)
  | Sysabi.Tcp_recv { conn; blocking; _ } -> (
      match Stack.tcp_recv t.stack conn with
      | data when Bytes.length data > 0 ->
          Some (Sysabi.R_data (Bytes.to_string data))
      | _ -> (
          match Stack.tcp_state t.stack conn with
          | Bi_net.Tcp.Closed | Bi_net.Tcp.Close_wait | Bi_net.Tcp.Time_wait
            ->
              Some (Sysabi.R_data "")
          | _ -> if blocking then None else err Sysabi.E_again)
      | exception Invalid_argument _ -> err Sysabi.E_badf)
  | Sysabi.Tcp_close { conn } -> (
      p.conns <- List.filter (( <> ) conn) p.conns;
      match Stack.tcp_close t.stack conn with
      | () -> Some Sysabi.R_unit
      | exception Invalid_argument _ -> err Sysabi.E_badf)
  (* pipes *)
  | Sysabi.Pipe ->
      let pipe = { pdata = ""; rd_open = true; wr_open = true } in
      let rfd = p.next_fd in
      let wfd = rfd + 1 in
      p.next_fd <- wfd + 1;
      Hashtbl.replace p.fds rfd (Pipe_rd pipe);
      Hashtbl.replace p.fds wfd (Pipe_wr pipe);
      Some (Sysabi.R_pair (rfd, wfd))
  (* memory protection *)
  | Sysabi.Mprotect { va; writable; executable } -> (
      let perm = { Bi_hw.Pte.writable; user = true; executable } in
      (* [protect] invalidates the region in the process's own caches,
         the only ones its accesses are translated through. *)
      match Address_space.protect p.aspace ~va ~perm with
      | Ok () -> Some Sysabi.R_unit
      | Error e -> err e)
  (* rename *)
  | Sysabi.Rename { src; dst } -> (
      match Fs.rename t.fs ~src ~dst with
      | Ok () -> Some Sysabi.R_unit
      | Error fe -> err (fs_err fe))
  (* time *)
  | Sysabi.Sleep _ -> None (* block *)

(* Marshal the request across the boundary, handle it, marshal the
   response back; park the thread if the syscall blocks. *)
and dispatch t th (req : Sysabi.request)
    (k : (Sysabi.response, unit) Effect.Deep.continuation) =
  let deliver resp =
    (* Response round-trips through the ABI codec too. *)
    let resp =
      match Sysabi.decode_response (Sysabi.encode_response resp) with
      | Some r -> r
      | None -> Sysabi.R_err Sysabi.E_inval
    in
    if t.tracing then t.trace_log <- (th.t_pid, req, resp) :: t.trace_log;
    th.tstate <- Ready (Resume (None, k, resp));
    enqueue_ready t th.tid
  in
  match Sysabi.decode_request (Sysabi.encode_request req) with
  | None -> deliver (Sysabi.R_err Sysabi.E_inval)
  | Some req -> (
      match req with
      | Sysabi.Exit code -> (
          if t.tracing then
            t.trace_log <- (th.t_pid, req, Sysabi.R_unit) :: t.trace_log;
          match get_process t th.t_pid with
          | Some p -> kill_process t p code
          | None -> ())
      | _ -> (
          match handle t th req with
          | Some resp -> deliver resp
          | None ->
              (* Park the thread in the call.  The call is traced when it
                 returns, with the response the thread actually gets. *)
              let deadline =
                match req with
                | Sysabi.Sleep ticks -> now t + ticks
                | Sysabi.Tcp_recv { timeout; _ } when timeout > 0 ->
                    now t + timeout
                | _ -> max_int
              in
              (match req with
              | Sysabi.Futex_wait { va; _ } ->
                  Futex.enqueue t.futexes ~pid:th.t_pid ~va ~tid:th.tid
              | _ -> ());
              th.tstate <- Blocked (req, deadline, k)))

let syscall (s : sys) req = Effect.perform (Syscall (s, req))

(* A zombie's address space is destroyed: its root frame may already be
   another process's. *)
let user_load (s : sys) ~va =
  match get_process s.kernel s.s_pid with
  | Some ({ pstate = Alive; _ } as p) -> Address_space.load_u64 p.aspace ~va
  | Some _ | None -> Error Sysabi.E_srch

let user_store (s : sys) ~va v =
  match get_process s.kernel s.s_pid with
  | Some ({ pstate = Alive; _ } as p) -> Address_space.store_u64 p.aspace ~va v
  | Some _ | None -> Error Sysabi.E_srch

(* ------------------------------------------------------------------ *)
(* Time advance and unblocking                                         *)

(* One tick of the machine's timer.  No device raises an interrupt:
   instead, every tick moves frames across the wire, polls our stack and,
   every fourth tick, runs the TCP timers. *)
let advance_time t =
  Bi_hw.Device.Timer.tick t.machine.Machine.timer;
  ignore (Nic.deliver t.machine.Machine.nic : int);
  (match t.peer with
  | Some peer -> ignore (Nic.deliver peer.machine.Machine.nic : int)
  | None -> ());
  Stack.poll t.stack;
  if now t mod 4 = 0 then Stack.tick t.stack

(* Ask every parked call again.  A futex wait, a wait and a join are
   answered by the call that satisfies them instead; any other call that
   is still blocked at its deadline returns [R_unit] if it is a [Sleep],
   [E_again] otherwise. *)
let try_unblock t =
  let now = now t in
  Hashtbl.iter
    (fun _ th ->
      match th.tstate with
      | Blocked
          ((Sysabi.Futex_wait _ | Sysabi.Wait _ | Sysabi.Thread_join _), _, _)
      | Ready _ | Finished ->
          ()
      | Blocked (req, deadline, _) -> (
          match handle t th req with
          | Some resp -> wake t th resp
          | None when now >= deadline ->
              wake t th
                (match req with
                | Sysabi.Sleep _ -> Sysabi.R_unit
                | _ -> Sysabi.R_err Sysabi.E_again)
          | None -> ()))
    t.threads

let blocked_count t =
  Hashtbl.fold
    (fun _ th acc ->
      match th.tstate with Blocked _ -> acc + 1 | Ready _ | Finished -> acc)
    t.threads 0

let run_slice t =
  (* Run one thread for one quantum (to its next syscall). *)
  match Scheduler.dequeue t.sched with
  | None -> false
  | Some tid -> (
      let th = get_thread t tid in
      match th.tstate with
      | Ready (Start f) ->
          th.tstate <- Finished;
          (* replaced when it blocks/finishes *)
          f ();
          true
      | Ready (Resume (parked, k, resp)) ->
          th.tstate <- Finished;
          (match parked with
          | Some req when t.tracing ->
              t.trace_log <- (th.t_pid, req, resp) :: t.trace_log
          | Some _ | None -> ());
          Effect.Deep.continue k resp;
          true
      | Blocked _ | Finished -> true (* stale queue entry; skip *))

let max_idle_ticks = 100_000

(* Give every kernel one quantum per round.  When no thread anywhere can
   run, take an idle tick: time advances on every kernel and each one's
   parked calls are asked again. *)
let run_all ~on_tick ks =
  let idle = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if List.fold_left (fun ran k -> run_slice k || ran) false ks then idle := 0
    else if List.for_all (fun k -> blocked_count k = 0) ks then
      continue_ := false
    else begin
      (* [on_tick] runs before [advance_time] delivers (and, for a NIC
         with no connected peer, clears) the wire queues — a fault
         adversary interposing on two unconnected NICs must harvest tx
         frames here or they are gone. *)
      on_tick ();
      List.iter advance_time ks;
      List.iter try_unblock ks;
      incr idle;
      if !idle > max_idle_ticks then
        raise
          (Deadlock
             (Printf.sprintf "%s thread(s) blocked with no progress"
                (String.concat " + "
                   (List.map (fun k -> string_of_int (blocked_count k)) ks))))
    end
  done

let run t = run_all ~on_tick:ignore [ t ]

let connect a b =
  Nic.connect a.machine.Machine.nic b.machine.Machine.nic;
  a.peer <- Some b;
  b.peer <- Some a

let run_pair ?(on_tick = ignore) a b = run_all ~on_tick [ a; b ]
