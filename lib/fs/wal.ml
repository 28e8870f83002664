let max_records = 15
let log_blocks = 1 + (2 * max_records) (* header + (meta, data) per record *)

let magic = 0x57414C31l (* "WAL1" *)

type t = { dev : Block_dev.t; header_block : int }

type txn = {
  wal : t;
  mutable writes : (int * bytes) list; (* newest first *)
}

let create dev ~header_block =
  if header_block < 0 || header_block + log_blocks > Block_dev.blocks dev then
    invalid_arg "Wal.create: log region out of range";
  { dev; header_block }

let meta_block t i = t.header_block + 1 + (2 * i)
let data_block t i = t.header_block + 2 + (2 * i)

let write_header t n =
  let b = Bytes.make Block_dev.block_size '\000' in
  Bytes.set_int32_le b 0 magic;
  Bytes.set_int32_le b 4 (Int32.of_int n);
  Block_dev.write t.dev t.header_block b

let read_header t =
  let b = Block_dev.read t.dev t.header_block in
  if Bytes.get_int32_le b 0 = magic then
    let n = Int32.to_int (Bytes.get_int32_le b 4) in
    if n >= 0 && n <= max_records then Some n else None
  else None

let install t n =
  for i = 0 to n - 1 do
    let meta = Block_dev.read t.dev (meta_block t i) in
    let target = Int32.to_int (Bytes.get_int32_le meta 0) in
    let data = Block_dev.read t.dev (data_block t i) in
    Block_dev.write t.dev target data
  done

let recover t =
  match read_header t with
  | Some n when n > 0 ->
      install t n;
      Block_dev.flush t.dev;
      write_header t 0;
      Block_dev.flush t.dev;
      n
  | Some _ -> 0
  | None ->
      (* Torn or never-initialised header: discard the log. *)
      write_header t 0;
      Block_dev.flush t.dev;
      0

let begin_txn wal = { wal; writes = [] }

let txn_read txn block =
  let rec find = function
    | [] -> Block_dev.read txn.wal.dev block
    | (b, data) :: _ when b = block -> Bytes.copy data
    | _ :: rest -> find rest
  in
  find txn.writes

let txn_dirty txn = txn.writes <> []

let txn_write txn block data =
  if Bytes.length data <> Block_dev.block_size then
    invalid_arg "Wal.txn_write: buffer must be one block";
  let already = List.mem_assoc block txn.writes in
  let distinct = List.length (List.sort_uniq compare (List.map fst txn.writes)) in
  if (not already) && distinct >= max_records then
    invalid_arg "Wal.txn_write: transaction too large";
  txn.writes <- (block, Bytes.copy data) :: txn.writes

let commit txn =
  let t = txn.wal in
  (* Keep only the newest write per block, oldest-block-first order. *)
  let rec dedup seen = function
    | [] -> []
    | (b, d) :: rest ->
        if List.mem b seen then dedup seen rest
        else (b, d) :: dedup (b :: seen) rest
  in
  let records = List.rev (dedup [] txn.writes) in
  txn.writes <- [];
  match records with
  | [] -> ()
  | _ ->
      let n = List.length records in
      List.iteri
        (fun i (target, data) ->
          let meta = Bytes.make Block_dev.block_size '\000' in
          Bytes.set_int32_le meta 0 (Int32.of_int target);
          Block_dev.write t.dev (meta_block t i) meta;
          Block_dev.write t.dev (data_block t i) data)
        records;
      Block_dev.flush t.dev;
      write_header t n;
      Block_dev.flush t.dev;
      (* Commit point passed: install at home locations. *)
      List.iter (fun (target, data) -> Block_dev.write t.dev target data) records;
      Block_dev.flush t.dev;
      write_header t 0;
      Block_dev.flush t.dev

let abort txn = txn.writes <- []
