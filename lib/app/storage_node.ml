module U = Bi_kernel.Usys
module P = Protocol

let port = 9000

let io_err e = P.Io (Format.asprintf "%a" Bi_kernel.Sysabi.pp_err e)

let read_file s path =
  match U.openf s path with
  | Error e -> Error e
  | Ok fd ->
      let rec drain acc =
        match U.read s ~fd ~len:8192 with
        | Ok "" -> Ok (String.concat "" (List.rev acc))
        | Ok chunk -> drain (chunk :: acc)
        | Error e -> Error e
      in
      let result = drain [] in
      ignore (U.close s fd);
      result

let write_file s path data =
  match U.openf s ~create:true path with
  | Error e -> Error e
  | Ok fd -> (
      (* The ABI has no truncate, so the file is recreated: unlink, then
         create and write.  Journal redo covers a crash between the unlink
         and the write. *)
      ignore (U.close s fd);
      match U.unlink s path with
      | Error e -> Error e
      | Ok () -> (
          match U.openf s ~create:true path with
          | Error e -> Error e
          | Ok fd ->
              let r = U.write s ~fd data in
              ignore (U.close s fd);
              (match r with Ok _ -> Ok () | Error e -> Error e)))

(* The node's backing store, through the syscall interface: blocks as
   files, checksums in sidecars — every access crosses the marshalled ABI
   into the verified filesystem. *)
let usys_store s : Node_core.store =
  {
    load =
      (fun key ->
        match read_file s (Node_core.key_path key) with
        | Error Bi_kernel.Sysabi.E_noent -> Ok None
        | Error e -> Error (io_err e)
        | Ok value -> (
            match read_file s (Node_core.crc_path key) with
            | Error _ -> Error P.No_crc
            | Ok crc_text -> (
                match Int32.of_string_opt ("0x" ^ String.trim crc_text) with
                | None -> Error P.No_crc
                | Some crc -> Ok (Some { Node_core.value; crc }))));
    save =
      (fun key { Node_core.value; crc } ->
        match write_file s (Node_core.key_path key) value with
        | Error e -> Error (io_err e)
        | Ok () -> (
            match
              write_file s (Node_core.crc_path key) (Printf.sprintf "%08lx" crc)
            with
            | Error e -> Error (io_err e)
            | Ok () -> Ok ()));
    remove =
      (fun key ->
        match U.unlink s (Node_core.key_path key) with
        | Error Bi_kernel.Sysabi.E_noent -> Ok false
        | Error e -> Error (io_err e)
        | Ok () ->
            ignore (U.unlink s (Node_core.crc_path key));
            Ok true);
    keys =
      (fun () ->
        match U.readdir s Node_core.blocks_dir with
        | Error e -> Error (io_err e)
        | Ok names -> Ok (Node_core.keys_of_listing names));
  }

(* The node's redo journal through the same syscall interface.  Appends
   happen under netd's data-path mutex, so the append fd stays open
   across commits (seek once at open, then write + fsync per record);
   [sink_replace] is the two-file checkpoint dance whose interrupted
   states the next [sink_read] settles. *)
let usys_journal ?(path = "/journal") s : Journal.sink =
  let tmp = path ^ ".new" in
  let fd = ref None in
  let drop_fd () =
    match !fd with
    | Some f ->
        fd := None;
        ignore (U.close s f)
    | None -> ()
  in
  let settle () =
    match U.openf s path with
    | Ok f ->
        ignore (U.close s f);
        ignore (U.unlink s tmp)
    | Error _ -> (
        match U.openf s tmp with
        | Ok f ->
            ignore (U.close s f);
            ignore (U.rename s ~src:tmp ~dst:path)
        | Error _ -> ())
  in
  let append_fd () =
    match !fd with
    | Some f -> Ok f
    | None -> (
        match U.openf s ~create:true path with
        | Error e -> Error e
        | Ok f -> (
            match U.fstat s ~fd:f with
            | Error e ->
                ignore (U.close s f);
                Error e
            | Ok (_, size) -> (
                match U.seek s ~fd:f ~off:size with
                | Error e ->
                    ignore (U.close s f);
                    Error e
                | Ok _ ->
                    fd := Some f;
                    Ok f)))
  in
  {
    Journal.sink_read =
      (fun () ->
        drop_fd ();
        settle ();
        match read_file s path with
        | Ok data -> Ok (Bytes.of_string data)
        | Error Bi_kernel.Sysabi.E_noent -> Ok Bytes.empty
        | Error e -> Error (io_err e));
    sink_append =
      (fun data ->
        match append_fd () with
        | Error e -> Error (io_err e)
        | Ok f -> (
            match U.write s ~fd:f (Bytes.to_string data) with
            | Error e ->
                drop_fd ();
                Error (io_err e)
            | Ok _ -> (
                match U.fsync s ~fd:f with
                | Error e ->
                    drop_fd ();
                    Error (io_err e)
                | Ok () -> Ok ())));
    sink_replace =
      (fun data ->
        drop_fd ();
        ignore (U.unlink s tmp);
        match U.openf s ~create:true tmp with
        | Error e -> Error (io_err e)
        | Ok f -> (
            let r =
              match U.write s ~fd:f (Bytes.to_string data) with
              | Error e -> Error e
              | Ok _ -> U.fsync s ~fd:f
            in
            ignore (U.close s f);
            match r with
            | Error e -> Error (io_err e)
            | Ok () -> (
                ignore (U.unlink s path);
                match U.rename s ~src:tmp ~dst:path with
                | Error e -> Error (io_err e)
                | Ok () -> Ok ())));
  }

