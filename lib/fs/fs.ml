let bs = Block_dev.block_size

(* On-disk layout (in blocks). *)
let sb_block = 0
let wal_header = 1
let ibmap_block = 1 + Wal.log_blocks (* 32 *)
let dbmap_block = ibmap_block + 1
let itable_start = dbmap_block + 1
let itable_blocks = 32
let data_start = itable_start + itable_blocks (* 66 *)
let inodes_per_block = bs / 64
let max_inodes = itable_blocks * inodes_per_block
let root_ino = 1
let ndirect = 10
let indirect_ptrs = bs / 4
let max_file_blocks = ndirect + indirect_ptrs
let max_file_size = max_file_blocks * bs
let dirent_size = 32
let dirents_per_block = bs / dirent_size

let sb_magic = 0x62694653l (* "biFS" *)

type t = {
  dev : Block_dev.t;
  wal : Wal.t;
  ndata : int;
  names : (int * string, int) Hashtbl.t;
      (* Name cache: (directory inode, name) -> child inode, a subset of
         the committed directory entries.  See [dir_lookup]. *)
}

type error =
  | Not_found
  | Exists
  | Not_dir
  | Is_dir
  | Not_empty
  | No_space
  | Too_large
  | Invalid_path

type kind = File | Dir

type stat = { kind : kind; size : int; ino : int }

let pp_error ppf e =
  Format.pp_print_string ppf
    (match e with
    | Not_found -> "not-found"
    | Exists -> "exists"
    | Not_dir -> "not-dir"
    | Is_dir -> "is-dir"
    | Not_empty -> "not-empty"
    | No_space -> "no-space"
    | Too_large -> "too-large"
    | Invalid_path -> "invalid-path")

(* ------------------------------------------------------------------ *)
(* Inode codec                                                         *)

type inode = {
  ikind : kind;
  isize : int;
  direct : int array; (* length ndirect; 0 = hole *)
  indirect : int; (* block number or 0 *)
}

let empty_inode kind = { ikind = kind; isize = 0; direct = Array.make ndirect 0; indirect = 0 }

let inode_location ino =
  if ino < 1 || ino >= max_inodes then invalid_arg "Fs: inode out of range";
  (itable_start + (ino / inodes_per_block), ino mod inodes_per_block * 64)

let decode_inode b off =
  match Char.code (Bytes.get b off) with
  | 0 -> None
  | k ->
      let ikind = if k = 2 then Dir else File in
      let isize = Int32.to_int (Bytes.get_int32_le b (off + 4)) in
      let direct = Array.make ndirect 0 in
      for i = 0 to ndirect - 1 do
        direct.(i) <- Int32.to_int (Bytes.get_int32_le b (off + 8 + (4 * i)))
      done;
      let indirect = Int32.to_int (Bytes.get_int32_le b (off + 48)) in
      Some { ikind; isize; direct; indirect }

let encode_inode b off = function
  | None -> Bytes.fill b off 64 '\000'
  | Some ino ->
      Bytes.fill b off 64 '\000';
      Bytes.set b off (Char.chr (match ino.ikind with File -> 1 | Dir -> 2));
      Bytes.set_int32_le b (off + 4) (Int32.of_int ino.isize);
      Array.iteri
        (fun i p -> Bytes.set_int32_le b (off + 8 + (4 * i)) (Int32.of_int p))
        ino.direct;
      Bytes.set_int32_le b (off + 48) (Int32.of_int ino.indirect)

(* ------------------------------------------------------------------ *)
(* Transactional helpers                                               *)

let get_inode txn ino =
  let block, off = inode_location ino in
  decode_inode (Wal.txn_read txn block) off

let put_inode txn ino v =
  let block, off = inode_location ino in
  let b = Wal.txn_read txn block in
  encode_inode b off v;
  Wal.txn_write txn block b

let bitmap_alloc txn ~block ~limit =
  let b = Wal.txn_read txn block in
  let rec scan i =
    if i >= limit then None
    else begin
      let byte = Char.code (Bytes.get b (i / 8)) in
      let bit = 1 lsl (i mod 8) in
      if byte land bit = 0 then begin
        Bytes.set b (i / 8) (Char.chr (byte lor bit));
        Wal.txn_write txn block b;
        Some i
      end
      else scan (i + 1)
    end
  in
  scan 0

let bitmap_free txn ~block i =
  let b = Wal.txn_read txn block in
  let byte = Char.code (Bytes.get b (i / 8)) in
  let bit = 1 lsl (i mod 8) in
  Bytes.set b (i / 8) (Char.chr (byte land lnot bit));
  Wal.txn_write txn block b

let bitmap_count dev ~block ~limit =
  let b = Block_dev.read dev block in
  let used = ref 0 in
  for i = 0 to limit - 1 do
    if Char.code (Bytes.get b (i / 8)) land (1 lsl (i mod 8)) <> 0 then
      incr used
  done;
  !used

let alloc_ino txn =
  (* Inode 0 is reserved as nil; pre-mark by starting the scan at 1. *)
  let b = Wal.txn_read txn ibmap_block in
  let rec scan i =
    if i >= max_inodes then None
    else begin
      let byte = Char.code (Bytes.get b (i / 8)) in
      let bit = 1 lsl (i mod 8) in
      if byte land bit = 0 then begin
        Bytes.set b (i / 8) (Char.chr (byte lor bit));
        Wal.txn_write txn ibmap_block b;
        Some i
      end
      else scan (i + 1)
    end
  in
  scan 1

let free_ino txn ino = bitmap_free txn ~block:ibmap_block ino

let alloc_data t txn =
  match bitmap_alloc txn ~block:dbmap_block ~limit:t.ndata with
  | None -> None
  | Some i -> Some (data_start + i)

let free_data txn phys = bitmap_free txn ~block:dbmap_block (phys - data_start)

(* Physical block backing file block [i] of inode [inode_num], whose
   decoded inode [ino] the caller passes in, paired with the inode as it
   stands after: allocating a data or indirect block rewrites it.  [alloc]
   controls whether holes are filled; a hole is [0] when not allocating. *)
let file_block t txn inode_num ino i ~alloc =
  if i < 0 || i >= max_file_blocks then Error Too_large
  else if i < ndirect then begin
    if ino.direct.(i) <> 0 then Ok (ino.direct.(i), ino)
    else if not alloc then Ok (0, ino)
    else begin
      match alloc_data t txn with
      | None -> Error No_space
      | Some phys ->
          Wal.txn_write txn phys (Bytes.make bs '\000');
          let direct = Array.copy ino.direct in
          direct.(i) <- phys;
          let ino = { ino with direct } in
          put_inode txn inode_num (Some ino);
          Ok (phys, ino)
    end
  end
  else begin
    let slot = i - ndirect in
    let with_indirect ino =
      let ib = Wal.txn_read txn ino.indirect in
      let phys = Int32.to_int (Bytes.get_int32_le ib (4 * slot)) in
      if phys <> 0 then Ok (phys, ino)
      else if not alloc then Ok (0, ino)
      else begin
        match alloc_data t txn with
        | None -> Error No_space
        | Some phys ->
            Wal.txn_write txn phys (Bytes.make bs '\000');
            Bytes.set_int32_le ib (4 * slot) (Int32.of_int phys);
            Wal.txn_write txn ino.indirect ib;
            Ok (phys, ino)
      end
    in
    if ino.indirect <> 0 then with_indirect ino
    else if not alloc then Ok (0, ino)
    else begin
      match alloc_data t txn with
      | None -> Error No_space
      | Some ind ->
          Wal.txn_write txn ind (Bytes.make bs '\000');
          let ino = { ino with indirect = ind } in
          put_inode txn inode_num (Some ino);
          with_indirect ino
    end
  end

(* ------------------------------------------------------------------ *)
(* Directory entries                                                   *)

let dirent_ino b off = Int32.to_int (Bytes.get_int32_le b off)
let name_field = dirent_size - 4

(* Does the entry at [off] hold [name]?  Compared in place: the name's
   bytes, then a NUL or the end of the field. *)
let dirent_is b off name =
  let n = String.length name in
  let rec same i =
    i = n || (Bytes.get b (off + 4 + i) = name.[i] && same (i + 1))
  in
  n <= name_field
  && (n = name_field || Bytes.get b (off + 4 + n) = '\000')
  && same 0

let dirent_name b off =
  let rec len i =
    if i < name_field && Bytes.get b (off + 4 + i) <> '\000' then len (i + 1)
    else i
  in
  Bytes.sub_string b (off + 4) (len 0)

let dir_inode txn dino =
  match get_inode txn dino with
  | None -> Error Not_found
  | Some di when di.ikind <> Dir -> Error Not_dir
  | Some di -> Ok di

(* Visit the slots of directory [di] in order, free ones included, and
   stop at the first one [visit] answers [Some] for.  Each directory block
   and the indirect block are read at most once; [visit] gets the block's
   physical number, its buffer (a fresh copy the caller may modify and
   write back) and the slot's byte offset in it. *)
let dir_scan txn di visit =
  let nslots = di.isize / dirent_size in
  let ind = lazy (Wal.txn_read txn di.indirect) in
  let phys bi =
    if bi < ndirect then di.direct.(bi)
    else if di.indirect = 0 then 0
    else
      Int32.to_int (Bytes.get_int32_le (Lazy.force ind) (4 * (bi - ndirect)))
  in
  let rec blocks bi =
    let first = bi * dirents_per_block in
    if first >= nslots then None
    else
      match phys bi with
      | 0 -> blocks (bi + 1) (* hole *)
      | p ->
          let b = Wal.txn_read txn p in
          let upper = min dirents_per_block (nslots - first) in
          let rec slots s =
            if s >= upper then blocks (bi + 1)
            else
              match visit p b (s * dirent_size) with
              | Some _ as found -> found
              | None -> slots (s + 1)
          in
          slots 0
  in
  blocks 0

(* Names are unique within a directory ([dir_add] only runs after a
   lookup of the name came back empty), so the first match is the only
   one. *)
let find_entry txn di name =
  dir_scan txn di (fun p b off ->
      if dirent_ino b off <> 0 && dirent_is b off name then Some (p, b, off)
      else None)

(* A hit in the name cache skips [dir_inode] and the scan.  A miss scans,
   and fills the cache only while [txn] has no writes: then the scan read
   committed blocks, so the cache never holds a name an abort, or a
   [Wal.commit] that raises, could take back.  [dir_add] and [dir_remove]
   drop a name before they touch its block, so an entry stays valid for
   as long as it is cached. *)
let dir_lookup t txn dino name =
  match Hashtbl.find_opt t.names (dino, name) with
  | Some ino -> Ok (Some ino)
  | None -> (
      match dir_inode txn dino with
      | Error e -> Error e
      | Ok di ->
          let found =
            Option.map
              (fun (_, b, off) -> dirent_ino b off)
              (find_entry txn di name)
          in
          (match found with
          | Some ino when not (Wal.txn_dirty txn) ->
              Hashtbl.replace t.names (dino, name) ino
          | Some _ | None -> ());
          Ok found)

let dir_entries txn dino =
  match dir_inode txn dino with
  | Error e -> Error e
  | Ok di ->
      let acc = ref [] in
      ignore
        (dir_scan txn di (fun _ b off ->
             let ino = dirent_ino b off in
             if ino <> 0 then acc := (dirent_name b off, ino) :: !acc;
             None));
      Ok (List.sort compare !acc)

let write_dirent b off name ino =
  Bytes.fill b off dirent_size '\000';
  Bytes.set_int32_le b off (Int32.of_int ino);
  Bytes.blit_string name 0 b (off + 4) (String.length name)

let dir_add t txn dino name ino =
  Hashtbl.remove t.names (dino, name);
  match dir_inode txn dino with
  | Error e -> Error e
  | Ok di -> (
      (* Reuse the first freed slot within the current size. *)
      match
        dir_scan txn di (fun p b off ->
            if dirent_ino b off = 0 then Some (p, b, off) else None)
      with
      | Some (p, b, off) ->
          write_dirent b off name ino;
          Wal.txn_write txn p b;
          Ok ()
      | None -> (
          (* Append a new slot at the end. *)
          let slot = di.isize / dirent_size in
          let bi = slot / dirents_per_block in
          if bi >= max_file_blocks then Error No_space
          else begin
            match file_block t txn dino di bi ~alloc:true with
            | Error e -> Error e
            | Ok (phys, di) ->
                let b = Wal.txn_read txn phys in
                write_dirent b (slot mod dirents_per_block * dirent_size) name
                  ino;
                Wal.txn_write txn phys b;
                put_inode txn dino
                  (Some { di with isize = (slot + 1) * dirent_size });
                Ok ()
          end))

let dir_remove t txn dino name =
  Hashtbl.remove t.names (dino, name);
  match dir_inode txn dino with
  | Error e -> Error e
  | Ok di -> (
      match find_entry txn di name with
      | None -> Error Not_found
      | Some (p, b, off) ->
          Bytes.fill b off dirent_size '\000';
          Wal.txn_write txn p b;
          Ok ())

(* ------------------------------------------------------------------ *)
(* Path resolution                                                     *)

let resolve_in_txn t txn path =
  match Path.split path with
  | Error () -> Error Invalid_path
  | Ok parts ->
      let rec walk ino = function
        | [] -> Ok ino
        | name :: rest -> (
            match dir_lookup t txn ino name with
            | Error e -> Error e
            | Ok None -> Error Not_found
            | Ok (Some child) -> walk child rest)
      in
      walk root_ino parts

let resolve_parent t txn path =
  match Path.dirname_basename path with
  | Error () -> Error Invalid_path
  | Ok (parents, name) -> (
      match resolve_in_txn t txn (Path.join parents) with
      | Error e -> Error e
      | Ok dino -> Ok (dino, name))

(* ------------------------------------------------------------------ *)
(* Top-level operations                                                *)

let mkfs dev =
  if Block_dev.blocks dev < data_start + 16 then
    invalid_arg "Fs.mkfs: device too small";
  let ndata = min (Block_dev.blocks dev - data_start) (bs * 8) in
  let sb = Bytes.make bs '\000' in
  Bytes.set_int32_le sb 0 sb_magic;
  Bytes.set_int32_le sb 4 (Int32.of_int ndata);
  Block_dev.write dev sb_block sb;
  Block_dev.write dev ibmap_block (Bytes.make bs '\000');
  Block_dev.write dev dbmap_block (Bytes.make bs '\000');
  for i = 0 to itable_blocks - 1 do
    Block_dev.write dev (itable_start + i) (Bytes.make bs '\000')
  done;
  let t =
    {
      dev;
      wal = Wal.create dev ~header_block:wal_header;
      ndata;
      names = Hashtbl.create 64;
    }
  in
  ignore (Wal.recover t.wal : int);
  (* Root directory. *)
  let txn = Wal.begin_txn t.wal in
  let b = Wal.txn_read txn ibmap_block in
  Bytes.set b 0 (Char.chr 0b11);
  (* inode 0 reserved + inode 1 root *)
  Wal.txn_write txn ibmap_block b;
  put_inode txn root_ino (Some (empty_inode Dir));
  Wal.commit txn;
  t

let mount dev =
  let sb = Block_dev.read dev sb_block in
  if Bytes.get_int32_le sb 0 <> sb_magic then
    invalid_arg "Fs.mount: bad superblock";
  let ndata = Int32.to_int (Bytes.get_int32_le sb 4) in
  let t =
    {
      dev;
      wal = Wal.create dev ~header_block:wal_header;
      ndata;
      names = Hashtbl.create 64;
    }
  in
  ignore (Wal.recover t.wal : int);
  t

(* Run [f] in a transaction; commit on [Ok], abort on [Error]. *)
let transact t f =
  let txn = Wal.begin_txn t.wal in
  match f txn with
  | Ok _ as ok ->
      Wal.commit txn;
      ok
  | Error _ as e ->
      Wal.abort txn;
      e
  | exception e ->
      Wal.abort txn;
      raise e

let create_node t path kind =
  transact t (fun txn ->
      match resolve_parent t txn path with
      | Error e -> Error e
      | Ok (dino, name) -> (
          match dir_lookup t txn dino name with
          | Error e -> Error e
          | Ok (Some _) -> Error Exists
          | Ok None -> (
              match alloc_ino txn with
              | None -> Error No_space
              | Some ino -> (
                  put_inode txn ino (Some (empty_inode kind));
                  match dir_add t txn dino name ino with
                  | Error e -> Error e
                  | Ok () -> Ok ()))))

let create t path = create_node t path File
let mkdir t path = create_node t path Dir

let free_file_blocks txn (ino : inode) =
  Array.iter (fun p -> if p <> 0 then free_data txn p) ino.direct;
  if ino.indirect <> 0 then begin
    let ib = Wal.txn_read txn ino.indirect in
    for s = 0 to indirect_ptrs - 1 do
      let p = Int32.to_int (Bytes.get_int32_le ib (4 * s)) in
      if p <> 0 then free_data txn p
    done;
    free_data txn ino.indirect
  end

let unlink t path =
  transact t (fun txn ->
      match resolve_parent t txn path with
      | Error e -> Error e
      | Ok (dino, name) -> (
          match dir_lookup t txn dino name with
          | Error e -> Error e
          | Ok None -> Error Not_found
          | Ok (Some ino_num) -> (
              match get_inode txn ino_num with
              | None -> Error Not_found
              | Some ino when ino.ikind = Dir -> Error Is_dir
              | Some ino -> (
                  match dir_remove t txn dino name with
                  | Error e -> Error e
                  | Ok () ->
                      free_file_blocks txn ino;
                      put_inode txn ino_num None;
                      free_ino txn ino_num;
                      Ok ()))))

let rmdir t path =
  transact t (fun txn ->
      match resolve_parent t txn path with
      | Error e -> Error e
      | Ok (dino, name) -> (
          match dir_lookup t txn dino name with
          | Error e -> Error e
          | Ok None -> Error Not_found
          | Ok (Some ino_num) -> (
              match get_inode txn ino_num with
              | None -> Error Not_found
              | Some ino when ino.ikind <> Dir -> Error Not_dir
              | Some ino -> (
                  match dir_entries txn ino_num with
                  | Error e -> Error e
                  | Ok (_ :: _) -> Error Not_empty
                  | Ok [] -> (
                      match dir_remove t txn dino name with
                      | Error e -> Error e
                      | Ok () ->
                          free_file_blocks txn ino;
                          put_inode txn ino_num None;
                          free_ino txn ino_num;
                          Ok ())))))

let rename t ~src ~dst =
  transact t (fun txn ->
      match (resolve_parent t txn src, resolve_parent t txn dst) with
      | Error e, _ -> Error e
      | _, Error e -> Error e
      | Ok (sdir, sname), Ok (ddir, dname) -> (
          match dir_lookup t txn sdir sname with
          | Error e -> Error e
          | Ok None -> Error Not_found
          | Ok (Some ino) -> (
              match get_inode txn ino with
              | None -> Error Not_found
              | Some i when i.ikind = Dir -> Error Is_dir
              | Some _ -> (
                  match dir_lookup t txn ddir dname with
                  | Error e -> Error e
                  | Ok (Some _) -> Error Exists
                  | Ok None -> (
                      (* Link at the destination first, then unlink the
                         source; both inside one transaction, so a crash
                         shows either the old or the new name, never both
                         or neither. *)
                      match dir_add t txn ddir dname ino with
                      | Error e -> Error e
                      | Ok () -> dir_remove t txn sdir sname)))))

let readdir t path =
  transact t (fun txn ->
      match resolve_in_txn t txn path with
      | Error e -> Error e
      | Ok ino -> (
          match dir_entries txn ino with
          | Error e -> Error e
          | Ok entries -> Ok (List.map fst entries)))

let stat_of txn ino_num =
  match get_inode txn ino_num with
  | None -> Error Not_found
  | Some ino ->
      (* A directory's on-disk entry-table size is implementation detail;
         the spec-visible size of a directory is 0. *)
      let size = match ino.ikind with Dir -> 0 | File -> ino.isize in
      Ok { kind = ino.ikind; size; ino = ino_num }

let stat t path =
  transact t (fun txn ->
      match resolve_in_txn t txn path with
      | Error e -> Error e
      | Ok ino -> stat_of txn ino)

let resolve t path = transact t (fun txn -> resolve_in_txn t txn path)

let stat_ino t ino = transact t (fun txn -> stat_of txn ino)

let read_ino t ~ino ~off ~len =
  if off < 0 || len < 0 then Error Invalid_path
  else
    transact t (fun txn ->
        match get_inode txn ino with
        | None -> Error Not_found
        | Some inode when inode.ikind = Dir -> Error Is_dir
        | Some inode ->
            let len = max 0 (min len (inode.isize - off)) in
            let out = Bytes.make len '\000' in
            let rec copy pos =
              if pos >= len then Ok out
              else begin
                let file_off = off + pos in
                let bi = file_off / bs in
                let boff = file_off mod bs in
                let n = min (bs - boff) (len - pos) in
                match file_block t txn ino inode bi ~alloc:false with
                | Error e -> Error e
                | Ok (0, _) -> copy (pos + n) (* hole reads as zeros *)
                | Ok (phys, _) ->
                    let b = Wal.txn_read txn phys in
                    Bytes.blit b boff out pos n;
                    copy (pos + n)
              end
            in
            copy 0)

(* Writes are chunked so each transaction touches at most a handful of data
   blocks and stays within the WAL's record budget. *)
let write_chunk_blocks = 8

let write_ino t ~ino ~off data =
  let total = Bytes.length data in
  if off < 0 then Error Invalid_path
  else if off + total > max_file_size then Error Too_large
  else begin
    let rec chunks pos =
      if pos >= total then Ok ()
      else begin
        let chunk_len = min (write_chunk_blocks * bs) (total - pos) in
        let result =
          transact t (fun txn ->
              let rec blocks inode p =
                if p >= chunk_len then begin
                  let new_size = max inode.isize (off + pos + chunk_len) in
                  put_inode txn ino (Some { inode with isize = new_size });
                  Ok ()
                end
                else begin
                  let file_off = off + pos + p in
                  let bi = file_off / bs in
                  let boff = file_off mod bs in
                  let n = min (bs - boff) (chunk_len - p) in
                  match file_block t txn ino inode bi ~alloc:true with
                  | Error e -> Error e
                  | Ok (phys, inode) ->
                      let b = Wal.txn_read txn phys in
                      Bytes.blit data (pos + p) b boff n;
                      Wal.txn_write txn phys b;
                      blocks inode (p + n)
                end
              in
              match get_inode txn ino with
              | None -> Error Not_found
              | Some inode when inode.ikind = Dir -> Error Is_dir
              | Some inode -> blocks inode 0)
        in
        match result with Error e -> Error e | Ok () -> chunks (pos + chunk_len)
      end
    in
    if total = 0 then
      transact t (fun txn ->
          match get_inode txn ino with
          | None -> Error Not_found
          | Some _ -> Ok ())
    else chunks 0
  end

let truncate_ino t ~ino size =
  if size < 0 || size > max_file_size then Error Too_large
  else
    transact t (fun txn ->
        match get_inode txn ino with
        | None -> Error Not_found
        | Some inode when inode.ikind = Dir -> Error Is_dir
        | Some inode ->
            let keep_blocks = (size + bs - 1) / bs in
            (* When shrinking into the middle of a block, zero its tail so a
               later extension reads zeros there (spec: truncate pads with
               NUL). *)
            (if size < inode.isize && size mod bs <> 0 then begin
               match file_block t txn ino inode (size / bs) ~alloc:false with
               | Ok (phys, _) when phys <> 0 ->
                   let b = Wal.txn_read txn phys in
                   Bytes.fill b (size mod bs) (bs - (size mod bs)) '\000';
                   Wal.txn_write txn phys b
               | Ok _ | Error _ -> ()
             end);
            let direct = Array.copy inode.direct in
            for i = keep_blocks to ndirect - 1 do
              if direct.(i) <> 0 then begin
                free_data txn direct.(i);
                direct.(i) <- 0
              end
            done;
            let indirect = ref inode.indirect in
            if !indirect <> 0 then begin
              let ib = Wal.txn_read txn !indirect in
              let still_used = ref false in
              for s = 0 to indirect_ptrs - 1 do
                let p = Int32.to_int (Bytes.get_int32_le ib (4 * s)) in
                if p <> 0 then begin
                  if ndirect + s >= keep_blocks then begin
                    free_data txn p;
                    Bytes.set_int32_le ib (4 * s) 0l
                  end
                  else still_used := true
                end
              done;
              if !still_used then Wal.txn_write txn !indirect ib
              else begin
                free_data txn !indirect;
                indirect := 0
              end
            end;
            put_inode txn ino
              (Some { inode with isize = size; direct; indirect = !indirect });
            Ok ())

let fsync t = Block_dev.flush t.dev

let free_data_blocks t =
  t.ndata - bitmap_count t.dev ~block:dbmap_block ~limit:t.ndata
