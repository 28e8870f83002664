type t = Kernel.sys

let call = Kernel.syscall

let unexpected resp =
  failwith
    (Format.asprintf "Usys: unexpected kernel response %a" Sysabi.pp_response
       resp)

let getpid s = match call s Sysabi.Getpid with Sysabi.R_int v -> v | r -> unexpected r
let gettid s = match call s Sysabi.Gettid with Sysabi.R_int v -> v | r -> unexpected r

let yield s =
  match call s Sysabi.Yield with Sysabi.R_unit -> () | r -> unexpected r

let exit s code =
  ignore (call s (Sysabi.Exit code));
  (* The kernel never resumes an exited thread. *)
  assert false

let as_unit = function
  | Sysabi.R_unit -> Ok ()
  | Sysabi.R_err e -> Error e
  | r -> unexpected r

let as_int = function
  | Sysabi.R_int v -> Ok v
  | Sysabi.R_err e -> Error e
  | r -> unexpected r

let as_i64 = function
  | Sysabi.R_i64 v -> Ok v
  | Sysabi.R_err e -> Error e
  | r -> unexpected r

let as_data = function
  | Sysabi.R_data d -> Ok d
  | Sysabi.R_err e -> Error e
  | r -> unexpected r

let spawn s ~prog ~arg = as_int (call s (Sysabi.Spawn { prog; arg }))
let wait s pid = as_int (call s (Sysabi.Wait pid))
let kill s ~pid ~signal = as_unit (call s (Sysabi.Kill { pid; signal }))

let mmap s ~bytes = as_i64 (call s (Sysabi.Mmap { bytes }))
let munmap s ~va = as_unit (call s (Sysabi.Munmap { va }))
let mresolve s ~va = as_i64 (call s (Sysabi.Mresolve { va }))

let openf s ?(create = false) ?(trunc = false) path =
  as_int (call s (Sysabi.Open { path; create; trunc }))
let close s fd = as_unit (call s (Sysabi.Close { fd }))
let read s ~fd ~len = as_data (call s (Sysabi.Read { fd; len }))
let write s ~fd data = as_int (call s (Sysabi.Write { fd; data }))
let seek s ~fd ~off = as_int (call s (Sysabi.Seek { fd; off }))

let fstat s ~fd =
  match call s (Sysabi.Fstat { fd }) with
  | Sysabi.R_stat { dir; size } -> Ok (dir, size)
  | Sysabi.R_err e -> Error e
  | r -> unexpected r

let mkdir s path = as_unit (call s (Sysabi.Mkdir { path }))
let unlink s path = as_unit (call s (Sysabi.Unlink { path }))
let rmdir s path = as_unit (call s (Sysabi.Rmdir { path }))

let readdir s path =
  match call s (Sysabi.Readdir { path }) with
  | Sysabi.R_names ns -> Ok ns
  | Sysabi.R_err e -> Error e
  | r -> unexpected r

let fsync s ~fd = as_unit (call s (Sysabi.Fsync { fd }))

let thread_create s f =
  let entry = Kernel.register_entry (Kernel.sys_kernel s) f in
  match call s (Sysabi.Thread_create { entry }) with
  | Sysabi.R_int tid -> tid
  | r -> unexpected r

let thread_join s tid = as_unit (call s (Sysabi.Thread_join { tid }))

let futex_wait s ~va ~expected =
  as_unit (call s (Sysabi.Futex_wait { va; expected }))

let futex_wake s ~va ~count =
  match call s (Sysabi.Futex_wake { va; count }) with
  | Sysabi.R_int n -> n
  | r -> unexpected r

let load s ~va = Kernel.user_load s ~va
let store s ~va v = Kernel.user_store s ~va v

let udp_bind s port = as_unit (call s (Sysabi.Udp_bind { port }))

let udp_send s ~dst_ip ~dst_port ~src_port data =
  as_unit (call s (Sysabi.Udp_send { dst_ip; dst_port; src_port; data }))

let udp_recv s ?(blocking = true) port =
  match call s (Sysabi.Udp_recv { port; blocking }) with
  | Sysabi.R_dgram { ip; port; data } -> Ok (ip, port, data)
  | Sysabi.R_err e -> Error e
  | r -> unexpected r

let tcp_listen s port = as_unit (call s (Sysabi.Tcp_listen { port }))
let tcp_connect s ~ip ~port = as_int (call s (Sysabi.Tcp_connect { ip; port }))

let tcp_accept s ?(blocking = true) port =
  as_int (call s (Sysabi.Tcp_accept { port; blocking }))

let tcp_send s ~conn data = as_int (call s (Sysabi.Tcp_send { conn; data }))
let tcp_recv s ?(blocking = true) ?(timeout = 0) conn =
  as_data (call s (Sysabi.Tcp_recv { conn; blocking; timeout }))

let tcp_close s ~conn = as_unit (call s (Sysabi.Tcp_close { conn }))

let pipe s =
  match call s Sysabi.Pipe with
  | Sysabi.R_pair (r, w) -> Ok (r, w)
  | Sysabi.R_err e -> Error e
  | r -> unexpected r

let mprotect s ~va ~writable ~executable =
  as_unit (call s (Sysabi.Mprotect { va; writable; executable }))

let rename s ~src ~dst = as_unit (call s (Sysabi.Rename { src; dst }))

let log s msg =
  match call s (Sysabi.Log msg) with Sysabi.R_unit -> () | r -> unexpected r

let sleep s ticks =
  match call s (Sysabi.Sleep ticks) with
  | Sysabi.R_unit -> ()
  | r -> unexpected r

let now s =
  match call s Sysabi.Now with Sysabi.R_i64 v -> v | r -> unexpected r
