type node = Dir | File of string

type state = (string * node) list (* sorted by path; includes "/" *)

type op =
  | Create of string
  | Mkdir of string
  | Unlink of string
  | Rmdir of string
  | Rename of string * string
  | Readdir of string
  | Stat of string
  | Read of { path : string; off : int; len : int }
  | Write of { path : string; off : int; data : string }
  | Truncate of string * int

type ret =
  | Done
  | Names of string list
  | Statd of { dir : bool; size : int }
  | Data of string
  | Error of Fs.error

let empty = [ ("/", Dir) ]

let of_entries es =
  let es = List.filter (fun (p, _) -> p <> "/") es in
  List.sort compare (("/", Dir) :: es)

let lookup st path = List.assoc_opt path st

let entries st =
  List.filter (fun (p, _) -> p <> "/") (List.sort compare st)

let normalize path =
  match Path.split path with
  | Error () -> None
  | Ok parts -> Some (Path.join parts)

let parent_of path =
  match Path.dirname_basename path with
  | Error () -> None
  | Ok (parents, name) -> Some (Path.join parents, name)

let insert st path node = List.sort compare ((path, node) :: st)

let remove st path = List.filter (fun (p, _) -> p <> path) st

let replace st path node = insert (remove st path) path node

let children st dir =
  let prefix = if dir = "/" then "/" else dir ^ "/" in
  List.filter_map
    (fun (p, _) ->
      if p <> "/" && String.starts_with ~prefix p then begin
        let rest = String.sub p (String.length prefix) (String.length p - String.length prefix) in
        if String.contains rest '/' then None else Some rest
      end
      else None)
    st

(* The error for a normalized path that names nothing, in the
   implementation's resolution order: the walk from the root stops at the
   first missing component ([Not_found]) or at a file it would have to
   enter ([Not_dir]). *)
let rec absent st path =
  match parent_of path with
  | None -> Fs.Not_found
  | Some (parent, _) -> (
      match lookup st parent with
      | Some (File _) -> Fs.Not_dir
      | Some Dir -> Fs.Not_found
      | None -> absent st parent)

let create_node st path node =
  match normalize path with
  | None -> (st, Error Fs.Invalid_path)
  | Some p -> (
      match parent_of p with
      | None -> (st, Error Fs.Invalid_path) (* root *)
      | Some (parent, _) -> (
          match lookup st parent with
          | None -> (st, Error (absent st parent))
          | Some (File _) -> (st, Error Fs.Not_dir)
          | Some Dir -> (
              match lookup st p with
              | Some _ -> (st, Error Fs.Exists)
              | None -> (insert st p node, Done))))

(* Write [data] into [contents] at [off], zero-padding any gap. *)
let splice contents ~off data =
  let cur = String.length contents in
  let dlen = String.length data in
  let new_len = max cur (off + dlen) in
  let b = Bytes.make new_len '\000' in
  Bytes.blit_string contents 0 b 0 cur;
  Bytes.blit_string data 0 b off dlen;
  Bytes.to_string b

let remove_node st path ~want_dir =
  match normalize path with
  | None -> (st, Error Fs.Invalid_path)
  | Some p -> (
      match parent_of p with
      | None -> (st, Error Fs.Invalid_path)
      | Some _ -> (
          match lookup st p with
          | None -> (st, Error (absent st p))
          | Some Dir when not want_dir -> (st, Error Fs.Is_dir)
          | Some (File _) when want_dir -> (st, Error Fs.Not_dir)
          | Some Dir ->
              if children st p <> [] then (st, Error Fs.Not_empty)
              else (remove st p, Done)
          | Some (File _) -> (remove st p, Done)))

let step st op =
  let result =
    match op with
    | Create path -> create_node st path (File "")
    | Mkdir path -> create_node st path Dir
    | Unlink path -> remove_node st path ~want_dir:false
    | Rmdir path -> remove_node st path ~want_dir:true
    | Rename (src, dst) -> (
        (* Mirror the implementation's error priority: source parent,
           destination parent, source entry, kind, destination entry. *)
        let parent_ok p =
          match normalize p with
          | None -> Some Fs.Invalid_path
          | Some n -> (
              match parent_of n with
              | None -> Some Fs.Invalid_path
              | Some (parent, _) -> (
                  (* A parent that is a file resolves; looking an entry
                     up in it is what fails. *)
                  match lookup st parent with
                  | None -> Some (absent st parent)
                  | Some (File _ | Dir) -> None))
        in
        match (parent_ok src, parent_ok dst) with
        | Some e, _ -> (st, Error e)
        | None, Some e -> (st, Error e)
        | None, None -> (
            let s = Option.get (normalize src) in
            let d = Option.get (normalize dst) in
            match lookup st s with
            | None -> (st, Error (absent st s))
            | Some Dir -> (st, Error Fs.Is_dir)
            | Some (File c) -> (
                match lookup st d with
                | Some _ -> (st, Error Fs.Exists)
                | None when absent st d = Fs.Not_dir -> (st, Error Fs.Not_dir)
                | None -> (insert (remove st s) d (File c), Done))))
    | Readdir path -> (
        match normalize path with
        | None -> (st, Error Fs.Invalid_path)
        | Some p -> (
            match lookup st p with
            | None -> (st, Error (absent st p))
            | Some (File _) -> (st, Error Fs.Not_dir)
            | Some Dir -> (st, Names (List.sort compare (children st p)))))
    | Stat path -> (
        match normalize path with
        | None -> (st, Error Fs.Invalid_path)
        | Some p -> (
            match lookup st p with
            | None -> (st, Error (absent st p))
            | Some Dir -> (st, Statd { dir = true; size = 0 })
            | Some (File c) -> (st, Statd { dir = false; size = String.length c })))
    | Read { path; off; len } -> (
        match normalize path with
        | None -> (st, Error Fs.Invalid_path)
        | Some p -> (
            match lookup st p with
            | None -> (st, Error (absent st p))
            | Some Dir -> (st, Error Fs.Is_dir)
            | Some (File c) ->
                if off < 0 || len < 0 then (st, Error Fs.Invalid_path)
                else begin
                  let n = max 0 (min len (String.length c - off)) in
                  (st, Data (if n = 0 then "" else String.sub c off n))
                end))
    | Write { path; off; data } -> (
        match normalize path with
        | None -> (st, Error Fs.Invalid_path)
        | Some p -> (
            match lookup st p with
            | None -> (st, Error (absent st p))
            | Some Dir -> (st, Error Fs.Is_dir)
            | Some (File c) ->
                if off < 0 then (st, Error Fs.Invalid_path)
                else if off + String.length data > Fs.max_file_size then
                  (st, Error Fs.Too_large)
                else (replace st p (File (splice c ~off data)), Done)))
    | Truncate (path, size) -> (
        match normalize path with
        | None -> (st, Error Fs.Invalid_path)
        | Some p -> (
            match lookup st p with
            | None -> (st, Error (absent st p))
            | Some Dir -> (st, Error Fs.Is_dir)
            | Some (File c) ->
                if size < 0 || size > Fs.max_file_size then
                  (st, Error Fs.Too_large)
                else begin
                  let cur = String.length c in
                  let c' =
                    if size <= cur then String.sub c 0 size
                    else c ^ String.make (size - cur) '\000'
                  in
                  (replace st p (File c'), Done)
                end))
  in
  Some result

let equal_state a b = List.sort compare a = List.sort compare b
let equal_ret (a : ret) (b : ret) = a = b

let pp_node ppf = function
  | Dir -> Format.pp_print_string ppf "dir"
  | File c -> Format.fprintf ppf "file[%d]" (String.length c)

let pp_state ppf st =
  Format.fprintf ppf "{";
  List.iter (fun (p, n) -> Format.fprintf ppf "%s:%a; " p pp_node n) st;
  Format.fprintf ppf "}"

let pp_op ppf = function
  | Create p -> Format.fprintf ppf "create(%s)" p
  | Mkdir p -> Format.fprintf ppf "mkdir(%s)" p
  | Unlink p -> Format.fprintf ppf "unlink(%s)" p
  | Rmdir p -> Format.fprintf ppf "rmdir(%s)" p
  | Rename (s, d) -> Format.fprintf ppf "rename(%s,%s)" s d
  | Readdir p -> Format.fprintf ppf "readdir(%s)" p
  | Stat p -> Format.fprintf ppf "stat(%s)" p
  | Read { path; off; len } -> Format.fprintf ppf "read(%s,%d,%d)" path off len
  | Write { path; off; data } ->
      Format.fprintf ppf "write(%s,%d,[%d bytes])" path off (String.length data)
  | Truncate (p, n) -> Format.fprintf ppf "truncate(%s,%d)" p n

let pp_ret ppf = function
  | Done -> Format.pp_print_string ppf "done"
  | Names ns -> Format.fprintf ppf "names[%s]" (String.concat "," ns)
  | Statd { dir; size } ->
      Format.fprintf ppf "stat{dir=%b;size=%d}" dir size
  | Data d -> Format.fprintf ppf "data[%d bytes]" (String.length d)
  | Error e -> Format.fprintf ppf "error(%a)" Fs.pp_error e
