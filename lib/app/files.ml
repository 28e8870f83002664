module P = Protocol
module Fs = Bi_fs.Fs
module U = Bi_kernel.Usys
module Sysabi = Bi_kernel.Sysabi

type t = {
  read : string -> (string option, P.err) result;
  write : string -> string -> (unit, P.err) result;
  append : string -> string -> (unit, P.err) result;
  sync : string -> (unit, P.err) result;
  remove : string -> (bool, P.err) result;
  rename : src:string -> dst:string -> (unit, P.err) result;
  exists : string -> (bool, P.err) result;
  list : string -> (string list, P.err) result;
}

let of_fs fs =
  let io r =
    Result.map_error (fun e -> P.Io (Format.asprintf "%a" Fs.pp_error e)) r
  in
  let not_found_as v = function Error Fs.Not_found -> Ok v | r -> io r in
  let ( let* ) = Result.bind in
  let resolve_or_create path =
    match Fs.resolve fs path with
    | Error Fs.Not_found ->
        let* () = Fs.create fs path in
        Fs.resolve fs path
    | r -> r
  in
  (* Resolve or create [path], then write [data] at offset [at ino]. *)
  let write_at path data at =
    io
      (let* ino = resolve_or_create path in
       let* off = at ino in
       Fs.write_ino fs ~ino ~off (Bytes.of_string data))
  in
  {
    read =
      (fun path ->
        not_found_as None
          (let* ino = Fs.resolve fs path in
           let* { Fs.size; _ } = Fs.stat_ino fs ino in
           let* b = Fs.read_ino fs ~ino ~off:0 ~len:size in
           Ok (Some (Bytes.unsafe_to_string b))));
    write =
      (fun path data ->
        write_at path data (fun ino ->
            Result.map (fun () -> 0) (Fs.truncate_ino fs ~ino 0)));
    append =
      (fun path data ->
        let* () =
          write_at path data (fun ino ->
              Result.map (fun (st : Fs.stat) -> st.size) (Fs.stat_ino fs ino))
        in
        Ok (Fs.fsync fs));
    sync = (fun _ -> Ok (Fs.fsync fs));
    remove =
      (fun path ->
        not_found_as false (Result.map (fun () -> true) (Fs.unlink fs path)));
    rename = (fun ~src ~dst -> io (Fs.rename fs ~src ~dst));
    exists =
      (fun path ->
        not_found_as false (Result.map (fun _ -> true) (Fs.resolve fs path)));
    list = (fun path -> io (Fs.readdir fs path));
  }

(* The syscall backend's state: the append fd, positioned at its file's
   end, with the path it is open on.  Helpers take it explicitly so an
   instance is one small closure per operation: netd keeps the store and
   journal of every life it has run. *)
type usys = { s : U.t; mutable cached : (string * int) option }

let usys_io r =
  Result.map_error (fun e -> P.Io (Format.asprintf "%a" Sysabi.pp_err e)) r

let noent_as v = function Error Sysabi.E_noent -> Ok v | r -> usys_io r

let drop u path =
  match u.cached with
  | Some (p, fd) when p = path ->
      u.cached <- None;
      ignore (U.close u.s fd)
  | _ -> ()

(* Open [path], run [f] on the fd, close it. *)
let with_fd ?(create = false) ?(trunc = false) u path f =
  let ( let* ) = Result.bind in
  drop u path;
  let* fd = U.openf u.s ~create ~trunc path in
  let r = f fd in
  ignore (U.close u.s fd);
  r

let append_fd u path =
  let ( let* ) = Result.bind in
  match u.cached with
  | Some (p, fd) when p = path -> Ok fd
  | other ->
      Option.iter (fun (p, _) -> drop u p) other;
      let* fd = U.openf u.s ~create:true path in
      let positioned =
        let* _, size = U.fstat u.s ~fd in
        U.seek u.s ~fd ~off:size
      in
      (match positioned with
      | Ok _ -> u.cached <- Some (path, fd)
      | Error _ -> ignore (U.close u.s fd));
      Result.map (fun _ -> fd) positioned

(* Read a whole file from offset 0.  [Fs_spec.Read] answers exactly
   [min len (size - off)] bytes, so a chunk shorter than asked for ends
   the file; only a file that is a multiple of the chunk size takes one
   more read, answered [""]. *)
let chunk = 8192

let rec drain s fd acc =
  match U.read s ~fd ~len:chunk with
  | Ok data when String.length data < chunk ->
      Ok (Some (String.concat "" (List.rev (data :: acc))))
  | Ok data -> drain s fd (data :: acc)
  | Error e -> Error e

let usys_append u path data =
  let ( let* ) = Result.bind in
  let appended =
    let* fd = append_fd u path in
    let* _ = U.write u.s ~fd data in
    U.fsync u.s ~fd
  in
  if Result.is_error appended then drop u path;
  usys_io appended

let of_usys s =
  let u = { s; cached = None } in
  {
    read = (fun path -> noent_as None (with_fd u path (fun fd -> drain u.s fd [])));
    write =
      (fun path data ->
        usys_io
          (with_fd ~create:true ~trunc:true u path (fun fd ->
               Result.map ignore (U.write u.s ~fd data))));
    append = (fun path data -> usys_append u path data);
    sync = (fun path -> usys_io (with_fd u path (fun fd -> U.fsync u.s ~fd)));
    remove =
      (fun path ->
        drop u path;
        noent_as false (Result.map (fun () -> true) (U.unlink u.s path)));
    rename =
      (fun ~src ~dst ->
        drop u src;
        drop u dst;
        usys_io (U.rename u.s ~src ~dst));
    exists = (fun path -> noent_as false (with_fd u path (fun _ -> Ok true)));
    list = (fun path -> usys_io (U.readdir u.s path));
  }
