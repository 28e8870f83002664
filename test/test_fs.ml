(* Filesystem tests: the refinement/crash VC suite plus unit and property
   tests of the WAL and the on-disk structures. *)

module Disk = Bi_hw.Device.Disk
module Block_dev = Bi_fs.Block_dev
module Wal = Bi_fs.Wal
module Fs = Bi_fs.Fs
module Fs_spec = Bi_fs.Fs_spec
module Fs_refinement = Bi_fs.Fs_refinement
module Crash_explore = Bi_fs.Crash_explore
module Path = Bi_fs.Path

let check = Alcotest.check

let qtest name count gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let fresh_dev () = Block_dev.of_disk (Disk.create ~sectors:2048 ())
let fresh_fs () = Fs.mkfs (fresh_dev ())

let write_file fs path data =
  (match Fs.create fs path with Ok () | Error _ -> ());
  match Fs.resolve fs path with
  | Ok ino -> Fs.write_ino fs ~ino ~off:0 (Bytes.of_string data)
  | Error e -> Error e

let read_file fs path =
  match Fs.stat fs path with
  | Ok { Fs.size; ino; _ } -> (
      match Fs.read_ino fs ~ino ~off:0 ~len:size with
      | Ok b -> Some (Bytes.to_string b)
      | Error _ -> None)
  | Error _ -> None

(* ------------------------------------------------------------------ *)
(* VC suite *)

let vc_cases () =
  let vcs = Fs_refinement.vcs () in
  List.map
    (fun (vc : Bi_core.Vc.t) ->
      Alcotest.test_case vc.Bi_core.Vc.id `Quick (fun () ->
          match Bi_core.Vc.catch vc.Bi_core.Vc.check with
          | Bi_core.Vc.Proved -> ()
          | (Bi_core.Vc.Falsified _ | Bi_core.Vc.Timeout _ | Bi_core.Vc.Capped _) as o ->
              Alcotest.failf "%a" Bi_core.Vc.pp_outcome o))
    vcs

(* ------------------------------------------------------------------ *)
(* Path *)

let test_path_split () =
  check Alcotest.bool "root" true (Path.split "/" = Ok []);
  check Alcotest.bool "two components" true (Path.split "/a/b" = Ok [ "a"; "b" ]);
  check Alcotest.bool "relative rejected" true (Path.split "a/b" = Error ());
  check Alcotest.bool "empty component rejected" true (Path.split "/a//b" = Error ());
  check Alcotest.bool "dot rejected" true (Path.split "/a/./b" = Error ());
  check Alcotest.bool "too long rejected" true
    (Path.split ("/" ^ String.make 28 'x') = Error ())

let test_path_dirname_basename () =
  check Alcotest.bool "nested" true
    (Path.dirname_basename "/a/b/c" = Ok ([ "a"; "b" ], "c"));
  check Alcotest.bool "top" true (Path.dirname_basename "/a" = Ok ([], "a"));
  check Alcotest.bool "root has no basename" true
    (Path.dirname_basename "/" = Error ())

let prop_path_join_split =
  qtest "join inverts split" 200
    QCheck2.Gen.(
      list_size (int_range 0 4)
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)))
    (fun parts -> Path.split (Path.join parts) = Ok parts)

(* ------------------------------------------------------------------ *)
(* WAL *)

let test_wal_commit_applies () =
  let dev = fresh_dev () in
  let wal = Wal.create dev ~header_block:1 in
  ignore (Wal.recover wal);
  let txn = Wal.begin_txn wal in
  let b = Bytes.make Block_dev.block_size 'A' in
  Wal.txn_write txn 100 b;
  Wal.txn_write txn 101 b;
  Wal.commit txn;
  check Alcotest.bool "installed" true (Block_dev.read dev 100 = b);
  check Alcotest.bool "installed 2" true (Block_dev.read dev 101 = b)

let test_wal_txn_reads_own_writes () =
  let dev = fresh_dev () in
  let wal = Wal.create dev ~header_block:1 in
  ignore (Wal.recover wal);
  let txn = Wal.begin_txn wal in
  let b = Bytes.make Block_dev.block_size 'B' in
  Wal.txn_write txn 50 b;
  check Alcotest.bool "sees own write" true (Wal.txn_read txn 50 = b);
  Wal.abort txn;
  check Alcotest.bool "abort discards" false (Block_dev.read dev 50 = b)

let test_wal_last_write_wins () =
  let dev = fresh_dev () in
  let wal = Wal.create dev ~header_block:1 in
  ignore (Wal.recover wal);
  let txn = Wal.begin_txn wal in
  Wal.txn_write txn 60 (Bytes.make Block_dev.block_size 'x');
  Wal.txn_write txn 60 (Bytes.make Block_dev.block_size 'y');
  Wal.commit txn;
  check Alcotest.bool "second write wins" true
    (Bytes.get (Block_dev.read dev 60) 0 = 'y')

let test_wal_size_limit () =
  let dev = fresh_dev () in
  let wal = Wal.create dev ~header_block:1 in
  ignore (Wal.recover wal);
  let txn = Wal.begin_txn wal in
  match
    for i = 0 to Wal.max_records do
      Wal.txn_write txn (100 + i) (Bytes.make Block_dev.block_size 'z')
    done
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "record budget must be enforced"

(* The subject of fi/wal/recovery-idempotent-every-boundary: home blocks
   40 and 41 hold 'o' before, and one transaction writes 'n' to both. *)
let wal_subject =
  Bi_fault.Fi_check.wal_config ~explore_recovery:true
    ~setup_blocks:[ (40, 'o'); (41, 'o') ]
    ~txn_writes:[ (40, 'n'); (41, 'n') ]
    ()

(* Apply the first [n] ops of a recorded write/flush stream to [dev]. *)
let replay_prefix dev ops n =
  List.iteri
    (fun i op ->
      if i < n then
        match op with
        | Crash_explore.W (s, b) -> Block_dev.write dev s b
        | Crash_explore.F -> Block_dev.flush dev)
    ops

(* Cut the commit's recorded write stream after every op: recovery
   discards the transaction until the commit header (the commit's first
   write to the header block) has landed, and installs it from then on. *)
let test_wal_crash_before_commit_point () =
  let base () =
    let dev = fresh_dev () in
    wal_subject.setup dev;
    dev
  in
  let journal, recorded = Crash_explore.record (base ()) in
  wal_subject.mutate journal;
  let ops = recorded () in
  let rec commit_point i = function
    | Crash_explore.W (0, _) :: _ -> i
    | _ :: rest -> commit_point (i + 1) rest
    | [] -> Alcotest.fail "the commit wrote no header"
  in
  let commit_point = commit_point 0 ops in
  for n = 0 to List.length ops do
    let dev = base () in
    replay_prefix dev ops n;
    let recovered =
      wal_subject.view (Block_dev.crash_with dev ~keep_unflushed:max_int)
    in
    check
      Alcotest.(list char)
      (Printf.sprintf "cut after %d of %d ops" n (List.length ops))
      (if n > commit_point then [ 'n'; 'n' ] else [ 'o'; 'o' ])
      (List.map (fun b -> b.[0]) recovered)
  done

let test_wal_recover_idempotent () =
  let dev = fresh_dev () in
  let wal = Wal.create dev ~header_block:1 in
  ignore (Wal.recover wal);
  let txn = Wal.begin_txn wal in
  Wal.txn_write txn 70 (Bytes.make Block_dev.block_size 'R');
  Wal.commit txn;
  check Alcotest.int "nothing to replay" 0 (Wal.recover wal);
  check Alcotest.int "still nothing" 0 (Wal.recover wal)

(* ------------------------------------------------------------------ *)
(* Fs units *)

let test_fs_mkfs_mount () =
  let dev = fresh_dev () in
  let fs = Fs.mkfs dev in
  (match write_file fs "/boot" "persisted" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %a" Fs.pp_error e);
  let fs2 = Fs.mount dev in
  check (Alcotest.option Alcotest.string) "survives remount" (Some "persisted")
    (read_file fs2 "/boot")

let test_fs_mount_bad_superblock () =
  let dev = fresh_dev () in
  match Fs.mount dev with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unformatted device must be rejected"

let test_fs_max_file_size () =
  let fs = fresh_fs () in
  (match Fs.create fs "/big" with Ok () -> () | Error _ -> Alcotest.fail "create");
  match Fs.resolve fs "/big" with
  | Error _ -> Alcotest.fail "resolve"
  | Ok ino -> (
      (match Fs.write_ino fs ~ino ~off:(Fs.max_file_size - 8) (Bytes.make 8 'e') with
      | Ok () -> ()
      | Error e -> Alcotest.failf "boundary write: %a" Fs.pp_error e);
      match Fs.write_ino fs ~ino ~off:(Fs.max_file_size - 4) (Bytes.make 8 'x') with
      | Error Fs.Too_large -> ()
      | Ok () | Error _ -> Alcotest.fail "past max must fail")

let test_fs_deep_paths () =
  let fs = fresh_fs () in
  let rec mk depth path =
    if depth = 0 then ()
    else begin
      let p = path ^ "/d" in
      (match Fs.mkdir fs p with Ok () -> () | Error e -> Alcotest.failf "mkdir %s: %a" p Fs.pp_error e);
      mk (depth - 1) p
    end
  in
  mk 6 "";
  (match Fs.create fs "/d/d/d/d/d/d/leaf" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "deep create: %a" Fs.pp_error e);
  match Fs.readdir fs "/d/d/d/d/d/d" with
  | Ok names -> check (Alcotest.list Alcotest.string) "leaf listed" [ "leaf" ] names
  | Error e -> Alcotest.failf "readdir: %a" Fs.pp_error e

let test_fs_many_files_in_dir () =
  let fs = fresh_fs () in
  let names = List.init 40 (fun i -> Printf.sprintf "f%02d" i) in
  List.iter
    (fun n ->
      match Fs.create fs ("/" ^ n) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "create %s: %a" n Fs.pp_error e)
    names;
  (match Fs.readdir fs "/" with
  | Ok listed -> check (Alcotest.list Alcotest.string) "all listed" names listed
  | Error _ -> Alcotest.fail "readdir");
  (* Remove some; slots must be reusable. *)
  List.iteri
    (fun i n -> if i mod 2 = 0 then ignore (Fs.unlink fs ("/" ^ n)))
    names;
  (match Fs.create fs "/reused" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reuse slot: %a" Fs.pp_error e);
  match Fs.readdir fs "/" with
  | Ok listed -> check Alcotest.int "count after churn" 21 (List.length listed)
  | Error _ -> Alcotest.fail "readdir 2"

let test_fs_inode_reuse_no_leak () =
  let fs = fresh_fs () in
  (* Create/destroy repeatedly; inode table must not run out. *)
  for i = 0 to 300 do
    let p = Printf.sprintf "/cycle%d" (i mod 3) in
    (match Fs.create fs p with
    | Ok () -> ()
    | Error e -> Alcotest.failf "create %d: %a" i Fs.pp_error e);
    match Fs.unlink fs p with
    | Ok () -> ()
    | Error e -> Alcotest.failf "unlink %d: %a" i Fs.pp_error e
  done

let test_fs_sparse_read_zeros () =
  let fs = fresh_fs () in
  (match write_file fs "/sparse" "" with Ok () -> () | Error _ -> ());
  match Fs.resolve fs "/sparse" with
  | Error _ -> Alcotest.fail "resolve"
  | Ok ino -> (
      (match Fs.write_ino fs ~ino ~off:5000 (Bytes.of_string "tail") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "sparse write: %a" Fs.pp_error e);
      match Fs.read_ino fs ~ino ~off:1000 ~len:8 with
      | Ok b ->
          check Alcotest.string "hole reads zeros" (String.make 8 '\000')
            (Bytes.to_string b)
      | Error e -> Alcotest.failf "hole read: %a" Fs.pp_error e)

(* ------------------------------------------------------------------ *)
(* Block_dev.crash_with edge cases: keep is clamped to [0, pending] *)

let test_crash_with_edge_cases () =
  let mk () =
    let dev = fresh_dev () in
    Block_dev.write dev 10 (Bytes.make Block_dev.block_size 'a');
    Block_dev.write dev 11 (Bytes.make Block_dev.block_size 'b');
    dev
  in
  let survivors keep =
    let crashed = Block_dev.crash_with (mk ()) ~keep_unflushed:keep in
    List.filter
      (fun s ->
        Bytes.get (Block_dev.read crashed s) 0 <> '\000')
      [ 10; 11 ]
  in
  check (Alcotest.list Alcotest.int) "keep=0 loses everything" [] (survivors 0);
  check (Alcotest.list Alcotest.int) "negative keep clamps to 0" []
    (survivors (-3));
  check (Alcotest.list Alcotest.int) "keep=1 keeps the oldest" [ 10 ]
    (survivors 1);
  check (Alcotest.list Alcotest.int) "keep=pending keeps all" [ 10; 11 ]
    (survivors 2);
  check (Alcotest.list Alcotest.int) "keep>pending clamps to all" [ 10; 11 ]
    (survivors 99)

(* ------------------------------------------------------------------ *)
(* WAL recovery idempotence: crash the commit at every write boundary,
   crash recovery at each of its own write boundaries, and recover again;
   the explorer also demands that a second recovery changes nothing. *)

let test_wal_recovery_idempotent_every_boundary () =
  match Crash_explore.explore wal_subject with
  | Ok s ->
      check Alcotest.int "commit boundaries" 13 s.crash_points;
      check Alcotest.int "interrupted-recovery boundaries" 38
        s.recovery_points
  | Error e -> Alcotest.failf "recovery not idempotent: %s" e

(* ------------------------------------------------------------------ *)
(* Random crash-recovery property over multi-op histories: cut the
   history's recorded write stream at a random prefix.  Every operation is
   its own transaction, so the remounted tree is one that a prefix of the
   history left. *)

let prop_crash_recovery_consistent =
  qtest "crash during random history recovers to a consistent tree" 25
    QCheck2.Gen.(pair (int_range 0 10) nat)
    (fun (nops, cut) ->
      let base () =
        let dev = fresh_dev () in
        ignore (Fs.mkfs dev : Fs.t);
        dev
      in
      let journal, recorded = Crash_explore.record (base ()) in
      let fs = Fs.mount journal in
      let states = ref [ Fs_refinement.view fs ] in
      let txn f =
        ignore (f ());
        states := Fs_refinement.view fs :: !states
      in
      for i = 0 to nops do
        let p = Printf.sprintf "/f%d" (i mod 4) in
        match i mod 3 with
        | 0 -> txn (fun () -> Fs.create fs p)
        | 1 ->
            txn (fun () -> Fs.create fs p);
            txn (fun () -> write_file fs p (String.make (100 * i) 'w'))
        | _ -> txn (fun () -> Fs.unlink fs p)
      done;
      let ops = recorded () in
      let dev = base () in
      replay_prefix dev ops (cut mod (List.length ops + 1));
      let v =
        Fs_refinement.view
          (Fs.mount (Block_dev.crash_with dev ~keep_unflushed:max_int))
      in
      List.exists (Fs_spec.equal_state v) !states)

(* A create and a write are two transactions: a crash between them leaves
   an empty file, which is neither the pre-state nor the post-state. *)
let test_two_txn_mutation_rejected () =
  match
    Crash_explore.explore
      (Fs_refinement.crash_config ~setup:ignore
         ~mutate:(fun fs -> ignore (write_file fs "/a" "data"))
         ())
  with
  | Ok _ -> Alcotest.fail "create then write passed as one atomic step"
  | Error e -> check Alcotest.string "first failing crash point"
        "prefix 10/33: state {/:dir; /a:file[0]; } is neither pre {/:dir; } \
         nor post {/:dir; /a:file[4]; }"
        e

(* ------------------------------------------------------------------ *)
(* Directory layer: a fixed create/unlink/rename script checked against a
   Hashtbl model, with the device's whole write stream pinned.  The script
   grows /d past the 160 direct-block slots into the indirect block, uses
   names that are prefixes of each other ("k1", "k10", "k1.crc") and
   27-byte names, reuses freed slots and renames within and across
   directories.  The pin fixes the exact sector, contents and order of
   every write and flush, so a change to how directories are scanned must
   leave every on-disk image and crash state as it was. *)

(* Device that chains every write (sector, bytes) and flush into a digest. *)
let logging_dev () =
  let inner = fresh_dev () in
  let writes = ref 0 in
  let digest = ref (Digest.string "") in
  let log entry = digest := Digest.string (!digest ^ entry) in
  let dev =
    Block_dev.make ~blocks:(Block_dev.blocks inner) ~read:(Block_dev.read inner)
      ~write:(fun s b ->
        incr writes;
        log (Printf.sprintf "W%d:%s" s (Bytes.to_string b));
        Block_dev.write inner s b)
      ~flush:(fun () ->
        log "F";
        Block_dev.flush inner)
      ~crash:(fun seed -> Block_dev.crash ?seed inner)
      ~crash_with:(fun ~keep_unflushed -> Block_dev.crash_with inner ~keep_unflushed)
      ~io_count:(fun () -> Block_dev.io_count inner)
  in
  (dev, writes, digest)

let dir_names =
  Array.concat
    [
      Array.init 80 (fun j -> Printf.sprintf "k%d" j);
      Array.init 80 (fun j -> Printf.sprintf "k%d.crc" j);
      Array.init 24 (fun j -> Printf.sprintf "%s%03d" (String.make 24 'L') j);
      [| String.make 26 'L'; String.make 27 'L' |];
    ]

let test_dir_write_stream_pin () =
  let dev, writes, digest = logging_dev () in
  let fs = Fs.mkfs dev in
  let dirs = [| "/d"; "/e" |] in
  Array.iter (fun d -> check Alcotest.bool ("mkdir " ^ d) true (Fs.mkdir fs d = Ok ())) dirs;
  let model = Hashtbl.create 256 in
  let path d n = dirs.(d) ^ "/" ^ n in
  let expect what want got =
    if want <> got then
      Alcotest.failf "%s: expected %s" what
        (match want with Ok () -> "ok" | Error e -> Format.asprintf "%a" Fs.pp_error e)
  in
  let check_lookup d n =
    match (Fs.resolve fs (path d n), Hashtbl.mem model (d, n)) with
    | Ok _, true | Error Fs.Not_found, false -> ()
    | _ -> Alcotest.failf "lookup %s disagrees with the model" (path d n)
  in
  let check_readdir d =
    let want =
      List.sort compare
        (Hashtbl.fold (fun (d', n) () acc -> if d' = d then n :: acc else acc) model [])
    in
    check Alcotest.(result (list string) unit)
      ("readdir " ^ dirs.(d)) (Ok want)
      (Result.map_error (fun _ -> ()) (Fs.readdir fs dirs.(d)))
  in
  let create d n =
    let want = if Hashtbl.mem model (d, n) then Error Fs.Exists else Ok () in
    expect ("create " ^ path d n) want (Fs.create fs (path d n));
    if want = Ok () then Hashtbl.replace model (d, n) ()
  in
  let unlink d n =
    let want = if Hashtbl.mem model (d, n) then Ok () else Error Fs.Not_found in
    expect ("unlink " ^ path d n) want (Fs.unlink fs (path d n));
    Hashtbl.remove model (d, n)
  in
  let rename (sd, sn) (dd, dn) =
    let want =
      if not (Hashtbl.mem model (sd, sn)) then Error Fs.Not_found
      else if Hashtbl.mem model (dd, dn) then Error Fs.Exists
      else Ok ()
    in
    expect
      (Printf.sprintf "rename %s -> %s" (path sd sn) (path dd dn))
      want
      (Fs.rename fs ~src:(path sd sn) ~dst:(path dd dn));
    if want = Ok () then begin
      Hashtbl.remove model (sd, sn);
      Hashtbl.replace model (dd, dn) ()
    end
  in
  (* Grow /d to every name: 186 entries, 26 of them in the indirect block. *)
  Array.iter (create 0) dir_names;
  Array.iter (check_lookup 0) dir_names;
  check_readdir 0;
  (* Churn: a fixed LCG picks names, directories and operations. *)
  let seed = ref 12345 in
  let next bound =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    (!seed lsr 8) mod bound
  in
  let pick () = dir_names.(next (Array.length dir_names)) in
  for step = 1 to 1500 do
    let d = if next 5 = 0 then 1 else 0 in
    let n = pick () in
    (match next 8 with
    | 0 | 1 | 2 -> unlink d n
    | 3 | 4 -> if Hashtbl.length model < 240 then create d n else unlink d n
    | 5 -> rename (d, n) (d, pick ())
    | 6 -> rename (d, n) (1 - d, pick ())
    | _ -> (
        match Fs.resolve fs (path d n) with
        | Ok ino ->
            expect ("write " ^ path d n) (Ok ())
              (Fs.write_ino fs ~ino ~off:0 (Bytes.make (1 + next 700) 'w'))
        | Error _ -> check_lookup d n));
    check_lookup d n;
    check_lookup 0 "k";
    check_lookup 0 "k1.cr";
    if step mod 50 = 0 then begin
      check_readdir 0;
      check_readdir 1
    end
  done;
  Array.iter (fun n -> check_lookup 0 n; check_lookup 1 n) dir_names;
  check_readdir 0;
  check_readdir 1;
  check Alcotest.int "device writes" 10280 !writes;
  check Alcotest.string "write-stream digest" "a1ab349fbac513039460e6c012d161c5"
    (Digest.to_hex !digest)

(* ------------------------------------------------------------------ *)
(* Name cache.  A mount starts with an empty cache, so resolving on a
   fresh mount of the same device is the uncached answer: every live
   lookup must agree with it. *)

let fs_err = Alcotest.testable Fs.pp_error ( = )
let fs_res = Alcotest.(result int fs_err)
let fs_unit = Alcotest.(result unit fs_err)

let ok what = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %a" what Fs.pp_error e

(* Resolve [path] on the live filesystem, check a fresh mount agrees. *)
let agree dev fs path =
  let cold = Fs.resolve (Fs.mount dev) path in
  check fs_res (path ^ ": live lookup agrees with a fresh mount") cold
    (Fs.resolve fs path);
  cold

let test_cache_unlink_recreate () =
  let dev = fresh_dev () in
  let fs = Fs.mkfs dev in
  ok "create /a" (Fs.create fs "/a");
  let old = ok "resolve /a" (Fs.resolve fs "/a") in
  ok "unlink /a" (Fs.unlink fs "/a");
  check fs_res "/a is gone" (Error Fs.Not_found) (agree dev fs "/a");
  (* /b takes the freed inode, so /a comes back on another one. *)
  ok "create /b" (Fs.create fs "/b");
  ok "create /a again" (Fs.create fs "/a");
  let fresh = ok "resolve /a" (agree dev fs "/a") in
  check Alcotest.bool "/a has a new inode" true (fresh <> old);
  check fs_res "/b has the freed one" (Ok old) (agree dev fs "/b")

let test_cache_rename () =
  let dev = fresh_dev () in
  let fs = Fs.mkfs dev in
  ok "mkdir /d" (Fs.mkdir fs "/d");
  ok "create /a" (Fs.create fs "/a");
  let ino = ok "resolve /a" (Fs.resolve fs "/a") in
  ok "rename /a /d/b" (Fs.rename fs ~src:"/a" ~dst:"/d/b");
  check fs_res "/a is gone" (Error Fs.Not_found) (agree dev fs "/a");
  check fs_res "/d/b is the file" (Ok ino) (agree dev fs "/d/b");
  ok "rename /d/b /a" (Fs.rename fs ~src:"/d/b" ~dst:"/a");
  check fs_res "/d/b is gone" (Error Fs.Not_found) (agree dev fs "/d/b");
  check fs_res "/a is back" (Ok ino) (agree dev fs "/a")

let test_cache_rmdir_mkdir () =
  let dev = fresh_dev () in
  let fs = Fs.mkfs dev in
  ok "mkdir /d" (Fs.mkdir fs "/d");
  ok "create /d/f" (Fs.create fs "/d/f");
  let old = ok "resolve /d" (Fs.resolve fs "/d") in
  ignore (ok "resolve /d/f" (Fs.resolve fs "/d/f"));
  ok "unlink /d/f" (Fs.unlink fs "/d/f");
  ok "rmdir /d" (Fs.rmdir fs "/d");
  check fs_res "/d is gone" (Error Fs.Not_found) (agree dev fs "/d");
  (* /x takes the directory's inode, so /d comes back on another one. *)
  ok "create /x" (Fs.create fs "/x");
  ok "mkdir /d again" (Fs.mkdir fs "/d");
  let fresh = ok "resolve /d" (agree dev fs "/d") in
  check Alcotest.bool "/d has a new inode" true (fresh <> old);
  check fs_res "/d/f is gone" (Error Fs.Not_found) (agree dev fs "/d/f");
  check Alcotest.(result (list string) fs_err) "/d is empty" (Ok [])
    (Fs.readdir fs "/d");
  ok "create /d/f again" (Fs.create fs "/d/f");
  ignore (ok "resolve /d/f" (agree dev fs "/d/f"))

(* Create names in [dir] until one fails with [No_space]; that name must
   not resolve, and creating it again must fail the same way. *)
let create_until_no_space dev fs dir =
  let rec go i =
    let p = Printf.sprintf "%s/n%d" dir i in
    match Fs.create fs p with
    | Ok () -> go (i + 1)
    | Error Fs.No_space ->
        check fs_res (p ^ " left no name") (Error Fs.Not_found)
          (agree dev fs p);
        check fs_unit (p ^ " again") (Error Fs.No_space) (Fs.create fs p)
    | Error e -> Alcotest.failf "create %s: %a" p Fs.pp_error e
  in
  go 0

let test_cache_failed_create () =
  let dev = fresh_dev () in
  let fs = Fs.mkfs dev in
  ok "create /a" (Fs.create fs "/a");
  ok "mkdir /d" (Fs.mkdir fs "/d");
  let a = ok "resolve /a" (Fs.resolve fs "/a") in
  let d = ok "resolve /d" (Fs.resolve fs "/d") in
  check fs_unit "create /a twice" (Error Fs.Exists) (Fs.create fs "/a");
  check fs_unit "mkdir over a directory" (Error Fs.Exists) (Fs.mkdir fs "/d");
  check fs_unit "rename onto a name" (Error Fs.Exists)
    (Fs.rename fs ~src:"/a" ~dst:"/d");
  check fs_res "/a kept" (Ok a) (agree dev fs "/a");
  check fs_res "/d kept" (Ok d) (agree dev fs "/d");
  (* Out of inodes: the inode table holds 254 files besides the root. *)
  create_until_no_space dev fs "/d";
  (* Out of data blocks: a directory that needs a new block cannot grow. *)
  let dev = Block_dev.of_disk (Disk.create ~sectors:96 ()) in
  let fs = Fs.mkfs dev in
  ok "create /big" (Fs.create fs "/big");
  let big = ok "resolve /big" (Fs.resolve fs "/big") in
  let rec fill off =
    if Fs.free_data_blocks fs > 0 then
      match Fs.write_ino fs ~ino:big ~off (Bytes.make Block_dev.block_size 'b') with
      | Ok () -> fill (off + Block_dev.block_size)
      | Error _ -> ()
  in
  fill 0;
  create_until_no_space dev fs ""

(* After every operation of a random history, the live filesystem (whose
   cache fills and is invalidated as it goes) agrees with the spec, and
   its tree and every lookup agree with a fresh mount of its device. *)
let cache_paths = [| "/a"; "/b"; "/d"; "/d/a"; "/d/b"; "/e"; "/e/a" |]

let gen_cache_op =
  QCheck2.Gen.(
    let path = map (Array.get cache_paths) (int_bound (Array.length cache_paths - 1)) in
    oneof
      [
        map (fun p -> Fs_spec.Create p) path;
        map (fun p -> Fs_spec.Mkdir p) path;
        map (fun p -> Fs_spec.Unlink p) path;
        map (fun p -> Fs_spec.Rmdir p) path;
        map2 (fun a b -> Fs_spec.Rename (a, b)) path path;
        map (fun p -> Fs_spec.Stat p) path;
        map2
          (fun p n -> Fs_spec.Write { path = p; off = 0; data = String.make n 'w' })
          path (int_range 1 600);
      ])

let prop_cache_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150
       ~name:"name cache: live fs agrees with the spec and a fresh mount"
       ~print:(fun ops ->
         String.concat "; " (List.map (Format.asprintf "%a" Fs_spec.pp_op) ops))
       QCheck2.Gen.(list_size (int_range 1 40) gen_cache_op)
       (fun ops ->
         let dev = fresh_dev () in
         let fs = Fs.mkfs dev in
         let step spec op =
           let spec, want = Option.get (Fs_spec.step spec op) in
           let got = Fs_refinement.step fs op in
           let cold = Fs.mount dev in
           let fail what =
             QCheck2.Test.fail_reportf "after %a: %s" Fs_spec.pp_op op what
           in
           if not (Fs_spec.equal_ret want got) then
             fail (Format.asprintf "returned %a, spec %a" Fs_spec.pp_ret got
                     Fs_spec.pp_ret want);
           if not (Fs_spec.equal_state spec (Fs_refinement.view fs)) then
             fail "live tree differs from the spec";
           if not (Fs_spec.equal_state spec (Fs_refinement.view cold)) then
             fail "mounted tree differs from the spec";
           Array.iter
             (fun p ->
               if Fs.resolve fs p <> Fs.resolve cold p then
                 fail (p ^ ": live lookup differs from a fresh mount"))
             cache_paths;
           spec
         in
         ignore (List.fold_left step Fs_spec.empty ops : Fs_spec.state);
         true))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bi_fs"
    [
      ("vc-suite", vc_cases ());
      ( "path",
        [
          Alcotest.test_case "split" `Quick test_path_split;
          Alcotest.test_case "dirname/basename" `Quick test_path_dirname_basename;
          prop_path_join_split;
        ] );
      ( "wal",
        [
          Alcotest.test_case "commit applies" `Quick test_wal_commit_applies;
          Alcotest.test_case "txn reads own writes" `Quick test_wal_txn_reads_own_writes;
          Alcotest.test_case "last write wins" `Quick test_wal_last_write_wins;
          Alcotest.test_case "size limit" `Quick test_wal_size_limit;
          Alcotest.test_case "all-or-nothing" `Quick test_wal_crash_before_commit_point;
          Alcotest.test_case "recover idempotent" `Quick test_wal_recover_idempotent;
          Alcotest.test_case "recovery idempotent at every boundary" `Quick
            test_wal_recovery_idempotent_every_boundary;
        ] );
      ( "fs",
        [
          Alcotest.test_case "mkfs/mount" `Quick test_fs_mkfs_mount;
          Alcotest.test_case "bad superblock" `Quick test_fs_mount_bad_superblock;
          Alcotest.test_case "max file size" `Quick test_fs_max_file_size;
          Alcotest.test_case "deep paths" `Quick test_fs_deep_paths;
          Alcotest.test_case "many files + slot reuse" `Quick test_fs_many_files_in_dir;
          Alcotest.test_case "inode reuse" `Quick test_fs_inode_reuse_no_leak;
          Alcotest.test_case "sparse zeros" `Quick test_fs_sparse_read_zeros;
          Alcotest.test_case "name cache: unlink then re-create" `Quick
            test_cache_unlink_recreate;
          Alcotest.test_case "name cache: rename moves the name" `Quick
            test_cache_rename;
          Alcotest.test_case "name cache: rmdir then mkdir" `Quick
            test_cache_rmdir_mkdir;
          Alcotest.test_case "name cache: failed create leaves no name" `Quick
            test_cache_failed_create;
          prop_cache_agrees;
          Alcotest.test_case "directory write-stream pin" `Quick
            test_dir_write_stream_pin;
        ] );
      ( "crash",
        [
          Alcotest.test_case "crash_with clamps keep" `Quick
            test_crash_with_edge_cases;
          prop_crash_recovery_consistent;
          Alcotest.test_case "two transactions are not atomic" `Quick
            test_two_txn_mutation_rejected;
        ] );
    ]
