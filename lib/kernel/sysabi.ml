module W = Bi_net.Pkt.W
module R = Bi_net.Pkt.R
module Gen = Bi_core.Gen
module Vc = Bi_core.Vc

type err =
  | E_badf
  | E_noent
  | E_exists
  | E_inval
  | E_nomem
  | E_notdir
  | E_isdir
  | E_notempty
  | E_nospace
  | E_toolarge
  | E_again
  | E_nosys
  | E_child
  | E_srch
  | E_conn
  | E_fault

type request =
  | Getpid
  | Gettid
  | Yield
  | Exit of int
  | Spawn of { prog : string; arg : string }
  | Wait of int
  | Kill of { pid : int; signal : int }
  | Mmap of { bytes : int }
  | Munmap of { va : int64 }
  | Mresolve of { va : int64 }
  | Open of { path : string; create : bool; trunc : bool }
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
  | Thread_create of { entry : int }
  | Thread_join of { tid : int }
  | Futex_wait of { va : int64; expected : int64 }
  | Futex_wake of { va : int64; count : int }
  | Udp_bind of { port : int }
  | Udp_send of { dst_ip : int32; dst_port : int; src_port : int; data : string }
  | Udp_recv of { port : int; blocking : bool }
  | Tcp_listen of { port : int }
  | Tcp_connect of { ip : int32; port : int }
  | Tcp_accept of { port : int; blocking : bool }
  | Tcp_send of { conn : int; data : string }
  | Tcp_recv of { conn : int; blocking : bool; timeout : int }
  | Tcp_close of { conn : int }
  | Pipe
  | Mprotect of { va : int64; writable : bool; executable : bool }
  | Rename of { src : string; dst : string }
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
  | R_pair of int * int
  | R_err of err

(* ------------------------------------------------------------------ *)
(* Wire helpers                                                        *)

let w_i64 = W.i64
let r_i64 = R.i64
let w_int w v = w_i64 w (Int64.of_int v)
let r_int r = Int64.to_int (r_i64 r)

(* 32-bit length: syscall payloads (Write data, Tcp_send) can exceed
   65535 bytes. *)
let w_str w s =
  W.u32 w (Int32.of_int (String.length s));
  W.string w s

let r_str r =
  let n = Int32.to_int (R.u32 r) in
  if n < 0 then raise R.Truncated;
  Bytes.to_string (R.take r n)
let w_bool w b = W.u8 w (if b then 1 else 0)
let r_bool r = R.u8 r <> 0

let err_code = function
  | E_badf -> 1
  | E_noent -> 2
  | E_exists -> 3
  | E_inval -> 4
  | E_nomem -> 5
  | E_notdir -> 6
  | E_isdir -> 7
  | E_notempty -> 8
  | E_nospace -> 9
  | E_toolarge -> 10
  | E_again -> 11
  | E_nosys -> 12
  | E_child -> 13
  | E_srch -> 14
  | E_conn -> 15
  | E_fault -> 16

let err_of_code = function
  | 1 -> Some E_badf
  | 2 -> Some E_noent
  | 3 -> Some E_exists
  | 4 -> Some E_inval
  | 5 -> Some E_nomem
  | 6 -> Some E_notdir
  | 7 -> Some E_isdir
  | 8 -> Some E_notempty
  | 9 -> Some E_nospace
  | 10 -> Some E_toolarge
  | 11 -> Some E_again
  | 12 -> Some E_nosys
  | 13 -> Some E_child
  | 14 -> Some E_srch
  | 15 -> Some E_conn
  | 16 -> Some E_fault
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Request codec                                                       *)

let encode_request req =
  let w = W.create () in
  (match req with
  | Getpid -> W.u8 w 1
  | Gettid -> W.u8 w 2
  | Yield -> W.u8 w 3
  | Exit code ->
      W.u8 w 4;
      w_int w code
  | Spawn { prog; arg } ->
      W.u8 w 5;
      w_str w prog;
      w_str w arg
  | Wait pid ->
      W.u8 w 6;
      w_int w pid
  | Kill { pid; signal } ->
      W.u8 w 7;
      w_int w pid;
      w_int w signal
  | Mmap { bytes } ->
      W.u8 w 8;
      w_int w bytes
  | Munmap { va } ->
      W.u8 w 9;
      w_i64 w va
  | Mresolve { va } ->
      W.u8 w 10;
      w_i64 w va
  | Open { path; create; trunc } ->
      W.u8 w 11;
      w_str w path;
      w_bool w create;
      w_bool w trunc
  | Close { fd } ->
      W.u8 w 12;
      w_int w fd
  | Read { fd; len } ->
      W.u8 w 13;
      w_int w fd;
      w_int w len
  | Write { fd; data } ->
      W.u8 w 14;
      w_int w fd;
      w_str w data
  | Seek { fd; off } ->
      W.u8 w 15;
      w_int w fd;
      w_int w off
  | Fstat { fd } ->
      W.u8 w 16;
      w_int w fd
  | Mkdir { path } ->
      W.u8 w 17;
      w_str w path
  | Unlink { path } ->
      W.u8 w 18;
      w_str w path
  | Rmdir { path } ->
      W.u8 w 19;
      w_str w path
  | Readdir { path } ->
      W.u8 w 20;
      w_str w path
  | Fsync { fd } ->
      W.u8 w 21;
      w_int w fd
  | Thread_create { entry } ->
      W.u8 w 22;
      w_int w entry
  | Thread_join { tid } ->
      W.u8 w 23;
      w_int w tid
  | Futex_wait { va; expected } ->
      W.u8 w 24;
      w_i64 w va;
      w_i64 w expected
  | Futex_wake { va; count } ->
      W.u8 w 25;
      w_i64 w va;
      w_int w count
  | Udp_bind { port } ->
      W.u8 w 26;
      w_int w port
  | Udp_send { dst_ip; dst_port; src_port; data } ->
      W.u8 w 27;
      W.u32 w dst_ip;
      w_int w dst_port;
      w_int w src_port;
      w_str w data
  | Udp_recv { port; blocking } ->
      W.u8 w 28;
      w_int w port;
      w_bool w blocking
  | Tcp_listen { port } ->
      W.u8 w 29;
      w_int w port
  | Tcp_connect { ip; port } ->
      W.u8 w 30;
      W.u32 w ip;
      w_int w port
  | Tcp_accept { port; blocking } ->
      W.u8 w 31;
      w_int w port;
      w_bool w blocking
  | Tcp_send { conn; data } ->
      W.u8 w 32;
      w_int w conn;
      w_str w data
  | Tcp_recv { conn; blocking; timeout } ->
      W.u8 w 33;
      w_int w conn;
      w_bool w blocking;
      w_int w timeout
  | Tcp_close { conn } ->
      W.u8 w 34;
      w_int w conn
  | Log msg ->
      W.u8 w 35;
      w_str w msg
  | Sleep ticks ->
      W.u8 w 36;
      w_int w ticks
  | Now -> W.u8 w 37
  | Pipe -> W.u8 w 38
  | Mprotect { va; writable; executable } ->
      W.u8 w 39;
      w_i64 w va;
      w_bool w writable;
      w_bool w executable
  | Rename { src; dst } ->
      W.u8 w 40;
      w_str w src;
      w_str w dst);
  W.contents w

let decode_request b =
  try
    let r = R.of_bytes b in
    let req =
      match R.u8 r with
      | 1 -> Some Getpid
      | 2 -> Some Gettid
      | 3 -> Some Yield
      | 4 -> Some (Exit (r_int r))
      | 5 ->
          let prog = r_str r in
          let arg = r_str r in
          Some (Spawn { prog; arg })
      | 6 -> Some (Wait (r_int r))
      | 7 ->
          let pid = r_int r in
          let signal = r_int r in
          Some (Kill { pid; signal })
      | 8 -> Some (Mmap { bytes = r_int r })
      | 9 -> Some (Munmap { va = r_i64 r })
      | 10 -> Some (Mresolve { va = r_i64 r })
      | 11 ->
          let path = r_str r in
          let create = r_bool r in
          let trunc = r_bool r in
          Some (Open { path; create; trunc })
      | 12 -> Some (Close { fd = r_int r })
      | 13 ->
          let fd = r_int r in
          let len = r_int r in
          Some (Read { fd; len })
      | 14 ->
          let fd = r_int r in
          let data = r_str r in
          Some (Write { fd; data })
      | 15 ->
          let fd = r_int r in
          let off = r_int r in
          Some (Seek { fd; off })
      | 16 -> Some (Fstat { fd = r_int r })
      | 17 -> Some (Mkdir { path = r_str r })
      | 18 -> Some (Unlink { path = r_str r })
      | 19 -> Some (Rmdir { path = r_str r })
      | 20 -> Some (Readdir { path = r_str r })
      | 21 -> Some (Fsync { fd = r_int r })
      | 22 -> Some (Thread_create { entry = r_int r })
      | 23 -> Some (Thread_join { tid = r_int r })
      | 24 ->
          let va = r_i64 r in
          let expected = r_i64 r in
          Some (Futex_wait { va; expected })
      | 25 ->
          let va = r_i64 r in
          let count = r_int r in
          Some (Futex_wake { va; count })
      | 26 -> Some (Udp_bind { port = r_int r })
      | 27 ->
          let dst_ip = R.u32 r in
          let dst_port = r_int r in
          let src_port = r_int r in
          let data = r_str r in
          Some (Udp_send { dst_ip; dst_port; src_port; data })
      | 28 ->
          let port = r_int r in
          let blocking = r_bool r in
          Some (Udp_recv { port; blocking })
      | 29 -> Some (Tcp_listen { port = r_int r })
      | 30 ->
          let ip = R.u32 r in
          let port = r_int r in
          Some (Tcp_connect { ip; port })
      | 31 ->
          let port = r_int r in
          let blocking = r_bool r in
          Some (Tcp_accept { port; blocking })
      | 32 ->
          let conn = r_int r in
          let data = r_str r in
          Some (Tcp_send { conn; data })
      | 33 ->
          let conn = r_int r in
          let blocking = r_bool r in
          let timeout = r_int r in
          Some (Tcp_recv { conn; blocking; timeout })
      | 34 -> Some (Tcp_close { conn = r_int r })
      | 35 -> Some (Log (r_str r))
      | 36 -> Some (Sleep (r_int r))
      | 37 -> Some Now
      | 38 -> Some Pipe
      | 39 ->
          let va = r_i64 r in
          let writable = r_bool r in
          let executable = r_bool r in
          Some (Mprotect { va; writable; executable })
      | 40 ->
          let src = r_str r in
          let dst = r_str r in
          Some (Rename { src; dst })
      | _ -> None
    in
    match req with
    | Some _ when R.remaining r = 0 -> req
    | Some _ | None -> None
  with R.Truncated -> None

(* ------------------------------------------------------------------ *)
(* Response codec                                                      *)

let encode_response resp =
  let w = W.create () in
  (match resp with
  | R_unit -> W.u8 w 1
  | R_int v ->
      W.u8 w 2;
      w_int w v
  | R_i64 v ->
      W.u8 w 3;
      w_i64 w v
  | R_data s ->
      W.u8 w 4;
      w_str w s
  | R_names ns ->
      W.u8 w 5;
      W.u16 w (List.length ns);
      List.iter (w_str w) ns
  | R_stat { dir; size } ->
      W.u8 w 6;
      w_bool w dir;
      w_int w size
  | R_dgram { ip; port; data } ->
      W.u8 w 7;
      W.u32 w ip;
      w_int w port;
      w_str w data
  | R_pair (a, b) ->
      W.u8 w 9;
      w_int w a;
      w_int w b
  | R_err e ->
      W.u8 w 8;
      W.u8 w (err_code e));
  W.contents w

let decode_response b =
  try
    let r = R.of_bytes b in
    let resp =
      match R.u8 r with
      | 1 -> Some R_unit
      | 2 -> Some (R_int (r_int r))
      | 3 -> Some (R_i64 (r_i64 r))
      | 4 -> Some (R_data (r_str r))
      | 5 ->
          let n = R.u16 r in
          let names = List.init n (fun _ -> r_str r) in
          Some (R_names names)
      | 6 ->
          let dir = r_bool r in
          let size = r_int r in
          Some (R_stat { dir; size })
      | 7 ->
          let ip = R.u32 r in
          let port = r_int r in
          let data = r_str r in
          Some (R_dgram { ip; port; data })
      | 8 -> Option.map (fun e -> R_err e) (err_of_code (R.u8 r))
      | 9 ->
          let a = r_int r in
          let b = r_int r in
          Some (R_pair (a, b))
      | _ -> None
    in
    match resp with
    | Some _ when R.remaining r = 0 -> resp
    | Some _ | None -> None
  with R.Truncated -> None

let equal_request (a : request) (b : request) = a = b
let equal_response (a : response) (b : response) = a = b

(* ------------------------------------------------------------------ *)
(* Printers                                                            *)

let pp_err ppf e =
  Format.pp_print_string ppf
    (match e with
    | E_badf -> "EBADF"
    | E_noent -> "ENOENT"
    | E_exists -> "EEXIST"
    | E_inval -> "EINVAL"
    | E_nomem -> "ENOMEM"
    | E_notdir -> "ENOTDIR"
    | E_isdir -> "EISDIR"
    | E_notempty -> "ENOTEMPTY"
    | E_nospace -> "ENOSPC"
    | E_toolarge -> "EFBIG"
    | E_again -> "EAGAIN"
    | E_nosys -> "ENOSYS"
    | E_child -> "ECHILD"
    | E_srch -> "ESRCH"
    | E_conn -> "ECONN"
    | E_fault -> "EFAULT")

let pp_request ppf = function
  | Getpid -> Format.pp_print_string ppf "getpid"
  | Gettid -> Format.pp_print_string ppf "gettid"
  | Yield -> Format.pp_print_string ppf "yield"
  | Exit c -> Format.fprintf ppf "exit(%d)" c
  | Spawn { prog; arg } -> Format.fprintf ppf "spawn(%s,%s)" prog arg
  | Wait pid -> Format.fprintf ppf "wait(%d)" pid
  | Kill { pid; signal } -> Format.fprintf ppf "kill(%d,%d)" pid signal
  | Mmap { bytes } -> Format.fprintf ppf "mmap(%d)" bytes
  | Munmap { va } -> Format.fprintf ppf "munmap(0x%Lx)" va
  | Mresolve { va } -> Format.fprintf ppf "mresolve(0x%Lx)" va
  | Open { path; create; trunc } ->
      Format.fprintf ppf "open(%s,create=%b,trunc=%b)" path create trunc
  | Close { fd } -> Format.fprintf ppf "close(%d)" fd
  | Read { fd; len } -> Format.fprintf ppf "read(%d,%d)" fd len
  | Write { fd; data } -> Format.fprintf ppf "write(%d,[%d])" fd (String.length data)
  | Seek { fd; off } -> Format.fprintf ppf "seek(%d,%d)" fd off
  | Fstat { fd } -> Format.fprintf ppf "fstat(%d)" fd
  | Mkdir { path } -> Format.fprintf ppf "mkdir(%s)" path
  | Unlink { path } -> Format.fprintf ppf "unlink(%s)" path
  | Rmdir { path } -> Format.fprintf ppf "rmdir(%s)" path
  | Readdir { path } -> Format.fprintf ppf "readdir(%s)" path
  | Fsync { fd } -> Format.fprintf ppf "fsync(%d)" fd
  | Thread_create { entry } -> Format.fprintf ppf "thread_create(#%d)" entry
  | Thread_join { tid } -> Format.fprintf ppf "thread_join(%d)" tid
  | Futex_wait { va; expected } ->
      Format.fprintf ppf "futex_wait(0x%Lx,%Ld)" va expected
  | Futex_wake { va; count } -> Format.fprintf ppf "futex_wake(0x%Lx,%d)" va count
  | Udp_bind { port } -> Format.fprintf ppf "udp_bind(%d)" port
  | Udp_send { dst_port; _ } -> Format.fprintf ppf "udp_send(:%d)" dst_port
  | Udp_recv { port; _ } -> Format.fprintf ppf "udp_recv(%d)" port
  | Tcp_listen { port } -> Format.fprintf ppf "tcp_listen(%d)" port
  | Tcp_connect { port; _ } -> Format.fprintf ppf "tcp_connect(:%d)" port
  | Tcp_accept { port; blocking } ->
      Format.fprintf ppf "tcp_accept(%d,blocking=%b)" port blocking
  | Tcp_send { conn; data } -> Format.fprintf ppf "tcp_send(%d,[%d])" conn (String.length data)
  | Tcp_recv { conn; blocking; timeout } ->
      Format.fprintf ppf "tcp_recv(%d,blocking=%b,timeout=%d)" conn blocking
        timeout
  | Tcp_close { conn } -> Format.fprintf ppf "tcp_close(%d)" conn
  | Log m -> Format.fprintf ppf "log(%s)" m
  | Sleep t -> Format.fprintf ppf "sleep(%d)" t
  | Now -> Format.pp_print_string ppf "now"
  | Pipe -> Format.pp_print_string ppf "pipe"
  | Mprotect { va; writable; executable } ->
      Format.fprintf ppf "mprotect(0x%Lx,w=%b,x=%b)" va writable executable
  | Rename { src; dst } -> Format.fprintf ppf "rename(%s,%s)" src dst

let pp_response ppf = function
  | R_unit -> Format.pp_print_string ppf "()"
  | R_int v -> Format.fprintf ppf "%d" v
  | R_i64 v -> Format.fprintf ppf "0x%Lx" v
  | R_data s -> Format.fprintf ppf "data[%d]" (String.length s)
  | R_names ns -> Format.fprintf ppf "names[%d]" (List.length ns)
  | R_stat { dir; size } -> Format.fprintf ppf "stat{dir=%b;size=%d}" dir size
  | R_dgram { port; data; _ } ->
      Format.fprintf ppf "dgram{:%d,[%d]}" port (String.length data)
  | R_pair (a, b) -> Format.fprintf ppf "(%d,%d)" a b
  | R_err e -> Format.fprintf ppf "err(%a)" pp_err e

(* ------------------------------------------------------------------ *)
(* Samplers and marshalling VCs                                        *)

let sample_string g = String.init (Gen.int g 24) (fun _ -> Char.chr (32 + Gen.int g 95))
let sample_path g = "/" ^ String.init (1 + Gen.int g 8) (fun _ -> Char.chr (97 + Gen.int g 26))

let sample_request g =
  match Gen.int g 40 with
  | 0 -> Getpid
  | 1 -> Gettid
  | 2 -> Yield
  | 3 -> Exit (Gen.int g 256)
  | 4 -> Spawn { prog = sample_string g; arg = sample_string g }
  | 5 -> Wait (Gen.int g 1000)
  | 6 -> Kill { pid = Gen.int g 1000; signal = Gen.int g 32 }
  | 7 -> Mmap { bytes = Gen.int g 1_000_000 }
  | 8 -> Munmap { va = Gen.bits g 47 }
  | 9 -> Mresolve { va = Gen.bits g 47 }
  | 10 ->
      let path = sample_path g in
      let create = Gen.bool g in
      Open { path; create; trunc = Gen.bool g }
  | 11 -> Close { fd = Gen.int g 64 }
  | 12 -> Read { fd = Gen.int g 64; len = Gen.int g 10_000 }
  | 13 -> Write { fd = Gen.int g 64; data = sample_string g }
  | 14 -> Seek { fd = Gen.int g 64; off = Gen.int g 100_000 }
  | 15 -> Fstat { fd = Gen.int g 64 }
  | 16 -> Mkdir { path = sample_path g }
  | 17 -> Unlink { path = sample_path g }
  | 18 -> Rmdir { path = sample_path g }
  | 19 -> Readdir { path = sample_path g }
  | 20 -> Fsync { fd = Gen.int g 64 }
  | 21 -> Thread_create { entry = Gen.int g 1000 }
  | 22 -> Thread_join { tid = Gen.int g 1000 }
  | 23 -> Futex_wait { va = Gen.bits g 47; expected = Gen.next64 g }
  | 24 -> Futex_wake { va = Gen.bits g 47; count = Gen.int g 64 }
  | 25 -> Udp_bind { port = Gen.int g 0x10000 }
  | 26 ->
      Udp_send
        {
          dst_ip = Int32.of_int (Gen.int g 0x40000000);
          dst_port = Gen.int g 0x10000;
          src_port = Gen.int g 0x10000;
          data = sample_string g;
        }
  | 27 -> Udp_recv { port = Gen.int g 0x10000; blocking = Gen.bool g }
  | 28 -> Tcp_listen { port = Gen.int g 0x10000 }
  | 29 ->
      Tcp_connect
        { ip = Int32.of_int (Gen.int g 0x40000000); port = Gen.int g 0x10000 }
  | 30 ->
      let port = Gen.int g 0x10000 in
      Tcp_accept { port; blocking = Gen.bool g }
  | 31 -> Tcp_send { conn = Gen.int g 100; data = sample_string g }
  | 32 ->
      let conn = Gen.int g 100 in
      let blocking = Gen.bool g in
      Tcp_recv { conn; blocking; timeout = Gen.int g 1000 }
  | 33 -> Tcp_close { conn = Gen.int g 100 }
  | 34 -> Log (sample_string g)
  | 35 -> Sleep (Gen.int g 100)
  | 36 -> Now
  | 37 -> Pipe
  | 38 ->
      Mprotect { va = Gen.bits g 47; writable = Gen.bool g; executable = Gen.bool g }
  | _ -> Rename { src = sample_path g; dst = sample_path g }

let all_errs =
  [
    E_badf; E_noent; E_exists; E_inval; E_nomem; E_notdir; E_isdir;
    E_notempty; E_nospace; E_toolarge; E_again; E_nosys; E_child; E_srch;
    E_conn; E_fault;
  ]

let sample_response g =
  match Gen.int g 9 with
  | 0 -> R_unit
  | 1 -> R_int (Gen.int g 1_000_000)
  | 2 -> R_i64 (Gen.next64 g)
  | 3 -> R_data (sample_string g)
  | 4 -> R_names (Gen.sample g (Gen.int g 5) sample_string)
  | 5 -> R_stat { dir = Gen.bool g; size = Gen.int g 100_000 }
  | 6 ->
      R_dgram
        {
          ip = Int32.of_int (Gen.int g 0x40000000);
          port = Gen.int g 0x10000;
          data = sample_string g;
        }
  | 7 -> R_pair (Gen.int g 64, Gen.int g 64)
  | _ -> R_err (Gen.oneof g all_errs)

let vcs () =
  [
    Vc.prop ~id:"abi/marshal/request-roundtrip" ~category:"abi/marshal"
      (Vc.forall_sampled ~id:"req-rt" ~n:512 sample_request (fun req ->
           decode_request (encode_request req) = Some req));
    Vc.prop ~id:"abi/marshal/response-roundtrip" ~category:"abi/marshal"
      (Vc.forall_sampled ~id:"resp-rt" ~n:512 sample_response (fun resp ->
           decode_response (encode_response resp) = Some resp));
    Vc.prop ~id:"abi/marshal/truncation-rejected" ~category:"abi/marshal"
      (Vc.forall_sampled ~id:"req-trunc" ~n:256 sample_request (fun req ->
           let b = encode_request req in
           Bytes.length b = 0
           || decode_request (Bytes.sub b 0 (Bytes.length b - 1)) = None));
    Vc.prop ~id:"abi/marshal/trailing-garbage-rejected" ~category:"abi/marshal"
      (Vc.forall_sampled ~id:"req-trail" ~n:256 sample_request (fun req ->
           let b = encode_request req in
           decode_request (Bytes.cat b (Bytes.make 1 'x')) = None));
    Vc.prop ~id:"abi/marshal/bad-tag-rejected" ~category:"abi/marshal"
      (fun () ->
        decode_request (Bytes.make 1 '\255') = None
        && decode_response (Bytes.make 1 '\255') = None
        && decode_request Bytes.empty = None);
  ]
