module Fs_spec = Bi_fs.Fs_spec
module Fs = Bi_fs.Fs

type fd_state =
  | File of { path : string; offset : int }
  | Pipe_end (* reads/writes on pipes are scheduling-dependent *)

type proc = {
  fds : (int * fd_state) list;
  next_fd : int;
  regions : (int64 * int) list; (* base, pages *)
  next_va : int64;
}

type state = {
  fs : Fs_spec.state;
  procs : (int * proc) list;
  next_pid : int;
}

type verdict = Checked | Unchecked

let fresh_proc =
  { fds = []; next_fd = 3; regions = []; next_va = Address_space.user_base }

let init ~next_pid = { fs = Fs_spec.empty; procs = []; next_pid }

let fs_view st = st.fs

let err_of_fs (e : Fs.error) : Sysabi.err =
  match e with
  | Fs.Not_found -> Sysabi.E_noent
  | Fs.Exists -> Sysabi.E_exists
  | Fs.Not_dir -> Sysabi.E_notdir
  | Fs.Is_dir -> Sysabi.E_isdir
  | Fs.Not_empty -> Sysabi.E_notempty
  | Fs.No_space -> Sysabi.E_nospace
  | Fs.Too_large -> Sysabi.E_toolarge
  | Fs.Invalid_path -> Sysabi.E_inval

let get_proc st pid =
  match List.assoc_opt pid st.procs with
  | Some p -> p
  | None -> fresh_proc (* first event from a pid implicitly creates it *)

let set_proc st pid p =
  { st with procs = (pid, p) :: List.remove_assoc pid st.procs }

let page = 4096

(* Run an Fs_spec op and translate its result to a syscall response using
   [ok] for the success case. *)
let fs_op st op ~ok =
  match Fs_spec.step st.fs op with
  | None -> Error "fs spec op disabled"
  | Some (fs', ret) -> (
      match ret with
      | Fs_spec.Error e -> Ok ({ st with fs = fs' }, Sysabi.R_err (err_of_fs e))
      | r -> Ok ({ st with fs = fs' }, ok r))

let mismatch req expected got =
  Error
    (Format.asprintf "contract violation on %a: spec %a, kernel %a"
       Sysabi.pp_request req Sysabi.pp_response expected Sysabi.pp_response
       got)

let step st ~pid req got =
  let p = get_proc st pid in
  (* Compute the spec's expected response and post-state for the
     deterministic subset. *)
  let predicted =
    match req with
    | Sysabi.Getpid -> Some (Ok (st, Sysabi.R_int pid))
    | Sysabi.Yield | Sysabi.Log _ -> Some (Ok (st, Sysabi.R_unit))
    | Sysabi.Spawn _ ->
        (* pid assignment is sequential in spawn order *)
        Some
          (Ok
             ( {
                 st with
                 next_pid = st.next_pid + 1;
                 procs = (st.next_pid, fresh_proc) :: st.procs;
               },
               Sysabi.R_int st.next_pid ))
    | Sysabi.Mmap { bytes } ->
        if bytes <= 0 then Some (Ok (st, Sysabi.R_err Sysabi.E_inval))
        else begin
          let pages = (bytes + page - 1) / page in
          let va = p.next_va in
          let p' =
            {
              p with
              regions = (va, pages) :: p.regions;
              next_va = Int64.add va (Int64.of_int (pages * page));
            }
          in
          Some (Ok (set_proc st pid p', Sysabi.R_i64 va))
        end
    | Sysabi.Munmap { va } ->
        if List.mem_assoc va p.regions then begin
          let p' =
            { p with regions = List.remove_assoc va p.regions }
          in
          Some (Ok (set_proc st pid p', Sysabi.R_unit))
        end
        else Some (Ok (st, Sysabi.R_err Sysabi.E_inval))
    | Sysabi.Open { path; create; trunc } -> (
        let exists = Fs_spec.lookup st.fs path <> None in
        let add_fd fs' =
          let fd = p.next_fd in
          let p' =
            {
              p with
              fds = (fd, File { path; offset = 0 }) :: p.fds;
              next_fd = fd + 1;
            }
          in
          Some (Ok (set_proc { st with fs = fs' } pid p', Sysabi.R_int fd))
        in
        (* O_TRUNC: empty the file once it exists; a directory refuses. *)
        let opened fs' =
          if not trunc then add_fd fs'
          else
            match Fs_spec.step fs' (Fs_spec.Truncate (path, 0)) with
            | Some (fs'', Fs_spec.Done) -> add_fd fs''
            | Some (_, Fs_spec.Error e) ->
                Some (Ok (st, Sysabi.R_err (err_of_fs e)))
            | Some _ | None -> None
        in
        match (exists, create) with
        | false, false -> (
            (* Distinguish which error the path yields. *)
            match Fs_spec.step st.fs (Fs_spec.Stat path) with
            | Some (_, Fs_spec.Error e) ->
                Some (Ok (st, Sysabi.R_err (err_of_fs e)))
            | _ -> Some (Ok (st, Sysabi.R_err Sysabi.E_noent)))
        | false, true -> (
            match Fs_spec.step st.fs (Fs_spec.Create path) with
            | Some (fs', Fs_spec.Done) -> opened fs'
            | Some (_, Fs_spec.Error e) ->
                Some (Ok (st, Sysabi.R_err (err_of_fs e)))
            | Some _ | None -> None)
        | true, _ -> opened st.fs)
    | Sysabi.Close { fd } ->
        if List.mem_assoc fd p.fds then begin
          let p' = { p with fds = List.remove_assoc fd p.fds } in
          Some (Ok (set_proc st pid p', Sysabi.R_unit))
        end
        else Some (Ok (st, Sysabi.R_err Sysabi.E_badf))
    | Sysabi.Read { fd; len } -> (
        match List.assoc_opt fd p.fds with
        | None -> Some (Ok (st, Sysabi.R_err Sysabi.E_badf))
        | Some Pipe_end -> None
        | Some (File f) -> (
            match
              Fs_spec.step st.fs
                (Fs_spec.Read { path = f.path; off = f.offset; len })
            with
            | Some (fs', Fs_spec.Data d) ->
                (* The paper's read_spec: advance the offset by read_len. *)
                let p' =
                  {
                    p with
                    fds =
                      (fd, File { f with offset = f.offset + String.length d })
                      :: List.remove_assoc fd p.fds;
                  }
                in
                Some
                  (Ok (set_proc { st with fs = fs' } pid p', Sysabi.R_data d))
            | Some (_, Fs_spec.Error e) ->
                Some (Ok (st, Sysabi.R_err (err_of_fs e)))
            | Some _ | None -> None))
    | Sysabi.Write { fd; data } -> (
        match List.assoc_opt fd p.fds with
        | None -> Some (Ok (st, Sysabi.R_err Sysabi.E_badf))
        | Some Pipe_end -> None
        | Some (File f) -> (
            match
              Fs_spec.step st.fs
                (Fs_spec.Write { path = f.path; off = f.offset; data })
            with
            | Some (fs', Fs_spec.Done) ->
                let p' =
                  {
                    p with
                    fds =
                      (fd, File { f with offset = f.offset + String.length data })
                      :: List.remove_assoc fd p.fds;
                  }
                in
                Some
                  (Ok
                     ( set_proc { st with fs = fs' } pid p',
                       Sysabi.R_int (String.length data) ))
            | Some (_, Fs_spec.Error e) ->
                Some (Ok (st, Sysabi.R_err (err_of_fs e)))
            | Some _ | None -> None))
    | Sysabi.Seek { fd; off } -> (
        match List.assoc_opt fd p.fds with
        | None -> Some (Ok (st, Sysabi.R_err Sysabi.E_badf))
        | Some Pipe_end -> Some (Ok (st, Sysabi.R_err Sysabi.E_inval))
        | Some (File f) ->
            if off < 0 then Some (Ok (st, Sysabi.R_err Sysabi.E_inval))
            else begin
              let p' =
                {
                  p with
                  fds =
                    (fd, File { f with offset = off })
                    :: List.remove_assoc fd p.fds;
                }
              in
              Some (Ok (set_proc st pid p', Sysabi.R_int off))
            end)
    | Sysabi.Fstat { fd } -> (
        match List.assoc_opt fd p.fds with
        | None -> Some (Ok (st, Sysabi.R_err Sysabi.E_badf))
        | Some Pipe_end -> None
        | Some (File f) -> (
            match Fs_spec.step st.fs (Fs_spec.Stat f.path) with
            | Some (_, Fs_spec.Statd { dir; size }) ->
                Some (Ok (st, Sysabi.R_stat { dir; size }))
            | Some (_, Fs_spec.Error e) ->
                Some (Ok (st, Sysabi.R_err (err_of_fs e)))
            | Some _ | None -> None))
    | Sysabi.Mkdir { path } ->
        Some (fs_op st (Fs_spec.Mkdir path) ~ok:(fun _ -> Sysabi.R_unit))
    | Sysabi.Unlink { path } ->
        Some (fs_op st (Fs_spec.Unlink path) ~ok:(fun _ -> Sysabi.R_unit))
    | Sysabi.Rmdir { path } ->
        Some (fs_op st (Fs_spec.Rmdir path) ~ok:(fun _ -> Sysabi.R_unit))
    | Sysabi.Readdir { path } ->
        Some
          (fs_op st (Fs_spec.Readdir path) ~ok:(function
            | Fs_spec.Names ns -> Sysabi.R_names ns
            | _ -> Sysabi.R_err Sysabi.E_inval))
    | Sysabi.Pipe ->
        let rfd = p.next_fd in
        let wfd = rfd + 1 in
        let p' =
          {
            p with
            fds = (rfd, Pipe_end) :: (wfd, Pipe_end) :: p.fds;
            next_fd = wfd + 1;
          }
        in
        Some (Ok (set_proc st pid p', Sysabi.R_pair (rfd, wfd)))
    | Sysabi.Mprotect { va; _ } ->
        if List.mem_assoc va p.regions then Some (Ok (st, Sysabi.R_unit))
        else Some (Ok (st, Sysabi.R_err Sysabi.E_inval))
    | Sysabi.Rename { src; dst } ->
        Some
          (fs_op st (Fs_spec.Rename (src, dst)) ~ok:(fun _ -> Sysabi.R_unit))
    | Sysabi.Fsync { fd } ->
        if List.mem_assoc fd p.fds then Some (Ok (st, Sysabi.R_unit))
        else Some (Ok (st, Sysabi.R_err Sysabi.E_badf))
    | Sysabi.Exit _ -> Some (Ok (st, Sysabi.R_unit))
    (* Scheduling- or environment-dependent: not value-predicted.  A
       blocking [Tcp_recv] with a [timeout] is no exception: whether it
       returns data or [E_again] depends on when the peer's packets
       arrive, as whether a [Tcp_accept] gets a connection does. *)
    | Sysabi.Gettid | Sysabi.Wait _ | Sysabi.Kill _ | Sysabi.Mresolve _
    | Sysabi.Thread_create _ | Sysabi.Thread_join _ | Sysabi.Futex_wait _
    | Sysabi.Futex_wake _ | Sysabi.Udp_bind _ | Sysabi.Udp_send _
    | Sysabi.Udp_recv _ | Sysabi.Tcp_listen _ | Sysabi.Tcp_connect _
    | Sysabi.Tcp_accept _ | Sysabi.Tcp_send _ | Sysabi.Tcp_recv _
    | Sysabi.Tcp_close _ | Sysabi.Sleep _ | Sysabi.Now -> None
  in
  match predicted with
  | None -> Ok (st, Unchecked)
  | Some (Error msg) -> Error msg
  | Some (Ok (st', expected)) ->
      if Sysabi.equal_response expected got then Ok (st', Checked)
      else mismatch req expected got

let check_trace ~next_pid events =
  let rec go st checked unchecked = function
    | [] -> Ok (checked, unchecked)
    | (pid, req, resp) :: rest -> (
        (* Fsync of a bad fd is surfaced as EBADF by the kernel; accept
           either outcome for robustness of replay. *)
        match step st ~pid req resp with
        | Ok (st', Checked) -> go st' (checked + 1) unchecked rest
        | Ok (st', Unchecked) -> go st' checked (unchecked + 1) rest
        | Error _ as e -> e)
  in
  go (init ~next_pid) 0 0 events
