(* Block-store tests: protocol codecs, CRC vectors, end-to-end
   client/server refinement against the abstract store spec across two
   simulated machines, and end-to-end corruption detection. *)

module K = Bi_kernel.Kernel
module U = Bi_kernel.Usys
module P = Bi_app.Protocol
module Nd_client = Bi_netd.Nd_client
module RC = Bi_app.Resilient_client
module Store_spec = Bi_app.Store_spec
module NC = Bi_app.Node_core
module J = Bi_app.Journal

let check = Alcotest.check

let qtest name count gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let ip_server = Bi_net.Ip.addr_of_string "10.0.0.1"
let ip_client = Bi_net.Ip.addr_of_string "10.0.0.2"

(* The kernel only logs a thread that raised to its serial port, so a
   check failing inside a kernel program fails the case here. *)
let no_crash k =
  let out = K.serial_output k in
  if
    List.exists
      (String.starts_with ~prefix:"[kernel] thread")
      (String.split_on_char '\n' out)
  then Alcotest.fail out

(* Run [body server s] as the client program against a live storage
   node; returns the server kernel for post-mortem inspection. *)
let with_node body =
  let server = K.create ~ip:ip_server () in
  let client = K.create ~ip:ip_client () in
  K.connect server client;
  ignore (Bi_netd.Netd.install server);
  K.register_program client "cli" (fun s _ -> body server s);
  (match K.spawn server ~prog:"netd" ~arg:"" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "server spawn");
  (match K.spawn client ~prog:"cli" ~arg:"" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "client spawn");
  K.run_pair server client;
  no_crash server;
  no_crash client;
  server

(* [body server c] with one resilient client [c]; then shut the node
   down. *)
let with_store body =
  with_node (fun server s ->
      let net, c = Nd_client.create ~client:1 s ~ip:ip_server in
      body server c;
      ignore (Nd_client.rpc net P.Shutdown);
      Nd_client.close net)

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_crc32_vectors () =
  (* Known-answer vectors for IEEE 802.3 CRC-32; "123456789" is the
     standard check value every implementation must hit. *)
  check Alcotest.int32 "123456789" 0xCBF43926l (P.crc32 "123456789");
  check Alcotest.int32 "empty" 0l (P.crc32 "");
  check Alcotest.int32 "a" 0xE8B7BE43l (P.crc32 "a");
  check Alcotest.int32 "abc" 0x352441C2l (P.crc32 "abc");
  check Alcotest.int32 "quick brown fox" 0x414FA339l
    (P.crc32 "The quick brown fox jumps over the lazy dog")

let test_valid_key () =
  check Alcotest.bool "simple" true (P.valid_key "block-01_a");
  check Alcotest.bool "empty" false (P.valid_key "");
  check Alcotest.bool "upper rejected" false (P.valid_key "Block");
  check Alcotest.bool "slash rejected" false (P.valid_key "a/b");
  check Alcotest.bool "too long" false (P.valid_key (String.make 25 'a'))

let gen_key =
  QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 24))

let gen_txn =
  QCheck2.Gen.(
    opt
      (map2
         (fun client seq -> { P.client; seq })
         (int_range 0 99) (int_range 1 999)))

let gen_req =
  QCheck2.Gen.(
    oneof
      [
        map3
          (fun key value txn -> P.Put { key; value; crc = P.crc32 value; txn })
          gen_key
          (string_size ~gen:(char_range '\000' '\255') (int_range 0 200))
          gen_txn;
        map (fun k -> P.Get k) gen_key;
        map2 (fun key txn -> P.Delete { key; txn }) gen_key gen_txn;
        return P.List;
        return P.Ping;
        return P.Shutdown;
      ])

let prop_req_frame_roundtrip =
  qtest "request frames roundtrip" 300 gen_req (fun r ->
      match P.decode_req (P.encode_req r) ~off:0 with
      | Some (r', consumed) ->
          r' = r && consumed = Bytes.length (P.encode_req r)
      | None -> false)

let gen_err =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [ P.Bad_key; P.Too_large; P.Bad_crc; P.No_crc; P.Integrity;
            P.Read_only; P.Overloaded ];
        map (fun m -> P.Io m) (string_size ~gen:printable (int_range 0 30));
        map (fun v -> P.Wrong_shard v) (int_range 0 64);
      ])

let gen_resp =
  QCheck2.Gen.(
    oneof
      [
        return P.Done;
        map
          (fun value -> P.Value { value; crc = P.crc32 value })
          (string_size ~gen:(char_range '\000' '\255') (int_range 0 200));
        return P.Missing;
        map (fun ks -> P.Listing ks) (list_size (int_range 0 6) gen_key);
        map2
          (fun health epoch -> P.Pong { health; epoch })
          (oneofl [ P.Serving; P.Degraded ])
          (int_range 0 1000);
        map (fun e -> P.Err e) gen_err;
      ])

let prop_resp_frame_roundtrip =
  qtest "response frames roundtrip" 300 gen_resp (fun r ->
      match P.decode_resp (P.encode_resp r) ~off:0 with
      | Some (r', consumed) ->
          r' = r && consumed = Bytes.length (P.encode_resp r)
      | None -> false)

let test_partial_frame_incomplete () =
  let b = P.encode_req (P.Get "somekey") in
  let cut = Bytes.sub b 0 (Bytes.length b - 2) in
  check Alcotest.bool "incomplete frame yields None" true
    (P.decode_req cut ~off:0 = None)

let test_two_frames_in_buffer () =
  let b = Bytes.cat (P.encode_req P.Ping) (P.encode_req (P.Get "k")) in
  match P.decode_req b ~off:0 with
  | Some (P.Ping, next) -> (
      match P.decode_req b ~off:next with
      | Some (P.Get "k", _) -> ()
      | _ -> Alcotest.fail "second frame")
  | _ -> Alcotest.fail "first frame"

(* ------------------------------------------------------------------ *)
(* Store spec *)

let test_store_spec_basics () =
  let st, r = Store_spec.step Store_spec.empty (Store_spec.Put ("a", "1")) in
  check Alcotest.bool "put" true (r = Store_spec.Done);
  let st, r = Store_spec.step st (Store_spec.Get "a") in
  check Alcotest.bool "get" true (r = Store_spec.Value (Some "1"));
  let st, r = Store_spec.step st (Store_spec.Delete "a") in
  check Alcotest.bool "delete" true (r = Store_spec.Deleted true);
  let _, r = Store_spec.step st (Store_spec.Get "a") in
  check Alcotest.bool "gone" true (r = Store_spec.Value None)

let test_store_spec_rejects () =
  let _, r = Store_spec.step Store_spec.empty (Store_spec.Put ("BAD KEY", "x")) in
  check Alcotest.bool "invalid key rejected" true (r = Store_spec.Rejected)

(* ------------------------------------------------------------------ *)
(* End-to-end behaviour *)

let test_e2e_basic_ops () =
  ignore
    (with_store (fun _ c ->
         (match RC.put c ~key:"alpha" ~value:"one" with
         | Ok () -> ()
         | Error e -> Alcotest.failf "put: %a" RC.pp_error e);
         (match RC.get c ~key:"alpha" with
         | Ok (Some "one") -> ()
         | _ -> Alcotest.fail "get");
         (match RC.get c ~key:"absent" with
         | Ok None -> ()
         | _ -> Alcotest.fail "missing get");
         (match RC.put c ~key:"alpha" ~value:"two" with
         | Ok () -> ()
         | Error e -> Alcotest.failf "overwrite: %a" RC.pp_error e);
         (match RC.get c ~key:"alpha" with
         | Ok (Some "two") -> ()
         | _ -> Alcotest.fail "overwrite read");
         (match RC.list c with
         | Ok [ "alpha" ] -> ()
         | Ok other -> Alcotest.failf "list: [%s]" (String.concat ";" other)
         | Error e -> Alcotest.failf "list: %a" RC.pp_error e);
         (match RC.delete c ~key:"alpha" with
         | Ok true -> ()
         | _ -> Alcotest.fail "delete");
         match RC.delete c ~key:"alpha" with
         | Ok false -> ()
         | _ -> Alcotest.fail "double delete"))

let test_e2e_large_value () =
  let big = String.init 30_000 (fun i -> Char.chr (32 + (i mod 90))) in
  ignore
    (with_store (fun _ c ->
         (match RC.put c ~key:"big" ~value:big with
         | Ok () -> ()
         | Error e -> Alcotest.failf "put big: %a" RC.pp_error e);
         match RC.get c ~key:"big" with
         | Ok (Some v) ->
             check Alcotest.int "length" (String.length big) (String.length v);
             check Alcotest.bool "content" true (v = big)
         | _ -> Alcotest.fail "get big"))

let test_e2e_oversized_rejected () =
  ignore
    (with_store (fun _ c ->
         match RC.put c ~key:"huge" ~value:(String.make 70_000 'x') with
         | Error (RC.Remote P.Too_large) -> ()
         | _ -> Alcotest.fail "oversize must be rejected remotely"))

let test_e2e_invalid_key_rejected () =
  (* The client now rejects malformed keys locally, before any bytes hit
     the wire — no round-trip is spent on a request the node would
     definitively refuse. *)
  ignore
    (with_store (fun _ c ->
         (match RC.put c ~key:"NOT VALID" ~value:"x" with
         | Error RC.Invalid_key -> ()
         | _ -> Alcotest.fail "invalid put key must be rejected locally");
         (match RC.get c ~key:"a/b" with
         | Error RC.Invalid_key -> ()
         | _ -> Alcotest.fail "invalid get key must be rejected locally");
         match RC.delete c ~key:"" with
         | Error RC.Invalid_key -> ()
         | _ -> Alcotest.fail "invalid delete key must be rejected locally"))

(* Random op sequence replayed against the abstract store spec. *)
let test_e2e_refines_store_spec () =
  let g = Bi_core.Gen.of_string "app/refinement" in
  let keys = [ "k0"; "k1"; "k2" ] in
  let ops =
    List.init 30 (fun _ ->
        match Bi_core.Gen.int g 10 with
        | 0 | 1 | 2 | 3 ->
            Store_spec.Put
              ( Bi_core.Gen.oneof g keys,
                String.make (1 + Bi_core.Gen.int g 2000)
                  (Char.chr (97 + Bi_core.Gen.int g 26)) )
        | 4 | 5 | 6 -> Store_spec.Get (Bi_core.Gen.oneof g keys)
        | 7 | 8 -> Store_spec.Delete (Bi_core.Gen.oneof g keys)
        | _ -> Store_spec.List)
  in
  ignore
    (with_store (fun _ c ->
         let spec = ref Store_spec.empty in
         List.iter
           (fun op ->
             let spec', expected = Store_spec.step !spec op in
             spec := spec';
             let got =
               match op with
               | Store_spec.Put (key, value) -> (
                   match RC.put c ~key ~value with
                   | Ok () -> Store_spec.Done
                   | Error _ -> Store_spec.Rejected)
               | Store_spec.Get key -> (
                   match RC.get c ~key with
                   | Ok v -> Store_spec.Value v
                   | Error _ -> Store_spec.Rejected)
               | Store_spec.Delete key -> (
                   match RC.delete c ~key with
                   | Ok b -> Store_spec.Deleted b
                   | Error _ -> Store_spec.Rejected)
               | Store_spec.List -> (
                   match RC.list c with
                   | Ok ks -> Store_spec.Keys ks
                   | Error _ -> Store_spec.Rejected)
             in
             if not (Store_spec.equal_ret got expected) then
               Alcotest.failf "divergence on %a: node %a, spec %a"
                 Store_spec.pp_op op Store_spec.pp_ret got Store_spec.pp_ret
                 expected)
           ops))

let test_e2e_corruption_detected () =
  (* Flip a byte of the stored value, past the file's 4-byte checksum
     header, behind the node's back: the next GET must report an
     integrity violation rather than serve bad data. *)
  let outcome = ref "" in
  ignore
    (with_store (fun server c ->
         (match RC.put c ~key:"victim" ~value:"pristine data" with
         | Ok () -> ()
         | Error _ -> outcome := "put failed");
         (* Corrupt the server's filesystem directly (simulating media
            corruption below the filesystem). *)
         let fs = K.fs server in
         (match Bi_fs.Fs.resolve fs "/blocks/victim" with
         | Ok ino ->
             ignore
               (Bi_fs.Fs.write_ino fs ~ino ~off:4 (Bytes.of_string "Xristine"))
         | Error _ -> outcome := "corruption setup failed");
         (* [Integrity] is definitive: answered once, never retried. *)
         (match RC.get c ~key:"victim" with
         | Error (RC.Remote (P.Integrity as e)) ->
             outcome := Format.asprintf "detected: %a" P.pp_err e
         | Ok (Some _) -> outcome := "served corrupt data"
         | Ok None -> outcome := "missing"
         | Error e -> outcome := Format.asprintf "%a" RC.pp_error e);
         check Alcotest.int "one attempt per call" 2 (RC.stats c).RC.attempts));
  check Alcotest.string "integrity violation surfaced"
    "detected: integrity violation detected" !outcome

let test_e2e_sequential_clients () =
  (* The node serves connections back to back; a second client sees the
     first one's data. *)
  let second_saw = ref None in
  ignore
    (with_node (fun _ s ->
         let net1, c1 = Nd_client.create ~client:1 s ~ip:ip_server in
         ignore (RC.put c1 ~key:"shared" ~value:"across connections");
         Nd_client.close net1;
         U.sleep s 5;
         let net2, c2 = Nd_client.create ~client:2 s ~ip:ip_server in
         (match RC.get c2 ~key:"shared" with
         | Ok v -> second_saw := v
         | Error _ -> ());
         ignore (Nd_client.rpc net2 P.Shutdown);
         Nd_client.close net2));
  check (Alcotest.option Alcotest.string) "data visible across connections"
    (Some "across connections") !second_saw

let test_e2e_persistence_across_mount () =
  (* Data written through the whole stack survives a filesystem remount
     (server restart). *)
  let server = with_store (fun _ c ->
      match RC.put c ~key:"durable" ~value:"survives" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "put: %a" RC.pp_error e)
  in
  let disk = (K.machine server).Bi_hw.Machine.disk in
  let fs2 = Bi_fs.Fs.mount (Bi_fs.Block_dev.of_disk disk) in
  match Bi_fs.Fs.resolve fs2 "/blocks/durable" with
  | Error _ -> Alcotest.fail "file lost"
  | Ok ino -> (
      (* The value follows the 4-byte checksum header. *)
      match Bi_fs.Fs.read_ino fs2 ~ino ~off:4 ~len:100 with
      | Ok b -> check Alcotest.string "content" "survives" (Bytes.to_string b)
      | Error _ -> Alcotest.fail "read back")

(* ------------------------------------------------------------------ *)
(* The two Files backends *)

module Files = Bi_app.Files

let shape = function
  | Bi_kernel.Sysabi.Open { path; create = true; trunc = true } ->
      "open-trunc " ^ path
  | Bi_kernel.Sysabi.Write _ -> "write"
  | Bi_kernel.Sysabi.Close _ -> "close"
  | Bi_kernel.Sysabi.Fsync _ -> "fsync"
  | req -> Format.asprintf "%a" Bi_kernel.Sysabi.pp_request req

(* One backend, as the tests below drive it: netd's store and journal
   ([Storage_node.usys_store]/[usys_journal]) on the syscall side, the
   ones cr explores ([Node_core.fs_store]/[Journal.fs_sink]) on the fs
   side.  [traced thunk] is the shapes of the syscalls [thunk] issues
   ([[]] on the fs side). *)
type backend = {
  files : Files.t;
  store : unit -> NC.store;
  sink : unit -> J.sink;
  mkdir : string -> unit;
  traced : (unit -> unit) -> string list;
}

(* Run [f] on the syscall backend, in a process of a fresh traced kernel,
   and on the fs backend, over a second kernel's filesystem.  Returns
   both results and the number of sectors in which the flushed disks
   differ. *)
let on_both_backends f =
  let k = K.create () in
  K.set_trace k true;
  let by_usys = ref None in
  K.register_program k "prog" (fun s _ ->
      let traced thunk =
        let before = List.length (K.trace k) in
        thunk ();
        List.filteri (fun i _ -> i >= before) (K.trace k)
        |> List.map (fun (_, req, _) -> shape req)
      in
      by_usys :=
        Some
          (f
             {
               files = Files.of_usys s;
               store = (fun () -> Bi_app.Storage_node.usys_store s);
               sink = (fun () -> Bi_app.Storage_node.usys_journal s);
               mkdir = (fun path -> ignore (U.mkdir s path));
               traced;
             }));
  (match K.spawn k ~prog:"prog" ~arg:"" with
  | Ok _ -> K.run k
  | Error _ -> Alcotest.fail "spawn");
  no_crash k;
  let direct = K.create () in
  let fs = K.fs direct in
  let by_fs =
    f
      {
        files = Files.of_fs fs;
        store = (fun () -> NC.fs_store fs);
        sink = (fun () -> J.fs_sink fs ~path:"/journal");
        mkdir = (fun path -> ignore (Bi_fs.Fs.mkdir fs path));
        traced = (fun thunk -> thunk (); []);
      }
  in
  let image k =
    let disk = (K.machine k).Bi_hw.Machine.disk in
    Bi_hw.Device.Disk.flush disk;
    Bi_hw.Device.Disk.contents disk
  in
  let a = image k and b = image direct in
  let differing = ref 0 in
  Array.iteri (fun i s -> if s <> b.(i) then incr differing) a;
  match !by_usys with
  | Some by_usys -> (by_usys, by_fs, !differing)
  | None -> Alcotest.fail "process died"

let ok = function Ok v -> v | Error e -> Alcotest.failf "%a" P.pp_err e

(* Error payloads name each backend's own error codes, so only the
   constructor is compared. *)
let show pp = function
  | Ok v -> "ok " ^ pp v
  | Error (P.Io _) -> "io error"
  | Error e -> Format.asprintf "error %a" P.pp_err e

let show_opt = function None -> "absent" | Some s -> Printf.sprintf "%S" s

(* One script through each backend: the same results, and the same
   filesystem transactions, so byte-identical disks. *)
let test_files_backend_parity () =
  let script { files = f; _ } =
    let results = ref [] in
    let step pp r = results := show pp r :: !results in
    let unit () = "()" in
    step show_opt (f.read "/a");
    step unit (f.write "/a" "a longer first body");
    step unit (f.write "/a" "short");
    step show_opt (f.read "/a");
    step unit (f.append "/log" "one,");
    step unit (f.append "/log" "two,");
    step show_opt (f.read "/log");
    step unit (f.append "/log" "three");
    step string_of_bool (f.remove "/absent");
    step unit (f.rename ~src:"/a" ~dst:"/b");
    step unit (f.rename ~src:"/a" ~dst:"/c");
    step string_of_bool (f.exists "/a");
    step string_of_bool (f.exists "/b");
    step (String.concat ",") (f.list "/");
    step unit (f.sync "/b");
    step show_opt (f.read "/b");
    step show_opt (f.read "/log");
    step string_of_bool (f.remove "/b");
    List.rev !results
  in
  let by_usys, by_fs, differing = on_both_backends script in
  check Alcotest.(list string) "same results" by_fs by_usys;
  check Alcotest.(list string) "script results"
    [
      "ok absent"; "ok ()"; "ok ()"; {|ok "short"|}; "ok ()"; "ok ()";
      {|ok "one,two,"|}; "ok ()"; "ok false"; "ok ()"; "io error"; "ok false";
      "ok true"; "ok b,log"; "ok ()"; {|ok "short"|}; {|ok "one,two,three"|};
      "ok true";
    ]
    by_fs;
  check Alcotest.int "sectors differing" 0 differing

(* A block file shorter than its 4-byte checksum header (empty, as a
   crash between a save's truncate and its write leaves it, or 3 bytes)
   loads as [Err No_crc] on both backends; a directory at the key's path
   cannot be read and is an I/O error, not a missing checksum. *)
let test_store_header_errors () =
  let loads { files; store; mkdir; _ } =
    mkdir NC.blocks_dir;
    let store = store () in
    let load () = show (fun _ -> "loaded") (store.load "k") in
    ok (files.write (NC.key_path "k") "");
    let empty = load () in
    ok (files.write (NC.key_path "k") "abc");
    let short = load () in
    ignore (ok (files.remove (NC.key_path "k")));
    mkdir (NC.key_path "k");
    [ empty; short; load () ]
  in
  let by_usys, by_fs, _ = on_both_backends loads in
  let expected = [ "error missing checksum"; "error missing checksum"; "io error" ] in
  check Alcotest.(list string) "syscall backend" expected by_usys;
  check Alcotest.(list string) "fs backend" expected by_fs

(* netd's store and the fs-level store whose crash points cr explores run
   one write protocol: resolve or create, truncate, write.  The same saves
   through both leave byte-identical disks, and a syscall save is exactly
   open(create, trunc), write, close of the one block file. *)
let test_usys_store_is_fs_store_protocol () =
  let per_save, _, differing =
    on_both_backends (fun { store; mkdir; traced; _ } ->
        mkdir NC.blocks_dir;
        let store = store () in
        List.map
          (fun value ->
            traced (fun () -> ok (store.save "k1" { NC.value; crc = P.crc32 value })))
          [ "first"; String.make 600 'v'; "short" ])
  in
  List.iter
    (check Alcotest.(list string) "one save's syscalls"
       [ "open-trunc /blocks/k1"; "write"; "close" ])
    per_save;
  check Alcotest.int "sectors differing" 0 differing

(* netd's journal and the fs-level sink cr explores, through appends and
   two checkpoints: the same bytes read back, the same disk, and an
   append on the cached fd is exactly write + fsync. *)
let test_usys_journal_is_fs_sink () =
  let (by_usys, second_append), (by_fs, _), differing =
    on_both_backends (fun { sink; traced; _ } ->
        let sink = sink () in
        let append i =
          ok (sink.sink_append (Bytes.of_string (Printf.sprintf "record-%d;" i)))
        in
        let replace snap = ok (sink.sink_replace (Bytes.of_string snap)) in
        append 1;
        let second = traced (fun () -> append 2) in
        append 3;
        replace "snapshot-1;";
        append 4;
        replace "snapshot-2;";
        append 5;
        (Bytes.to_string (ok (sink.sink_read ())), second))
  in
  check Alcotest.string "journal read back" "snapshot-2;record-5;" by_usys;
  check Alcotest.string "same bytes through both" by_fs by_usys;
  check Alcotest.(list string) "an append's syscalls" [ "write"; "fsync" ]
    second_append;
  check Alcotest.int "sectors differing" 0 differing

(* ------------------------------------------------------------------ *)
(* Resilience layer *)

module Rs = Bi_app.Rs_check

(* Every error constructor of every layer must render: a resilience bug
   report that crashes while formatting its own error is worse than the
   bug.  Exact strings for the enums; prefix checks where a payload is
   interpolated. *)
let test_pp_error_coverage () =
  let p fmt v = Format.asprintf "%a" fmt v in
  let prefix pre s =
    String.length s >= String.length pre
    && String.sub s 0 (String.length pre) = pre
  in
  check Alcotest.string "P.Bad_key" "invalid key" (p P.pp_err P.Bad_key);
  check Alcotest.string "P.Too_large" "value too large" (p P.pp_err P.Too_large);
  check Alcotest.string "P.Bad_crc" "checksum mismatch on write"
    (p P.pp_err P.Bad_crc);
  check Alcotest.string "P.No_crc" "missing checksum" (p P.pp_err P.No_crc);
  check Alcotest.string "P.Integrity" "integrity violation detected"
    (p P.pp_err P.Integrity);
  check Alcotest.string "P.Read_only" "node degraded: read-only"
    (p P.pp_err P.Read_only);
  check Alcotest.string "P.Io" "io: disk on fire" (p P.pp_err (P.Io "disk on fire"));
  check Alcotest.string "P.Wrong_shard" "wrong shard (map version 3)"
    (p P.pp_err (P.Wrong_shard 3));
  check Alcotest.string "P.Overloaded" "overloaded: request shed, retry later"
    (p P.pp_err P.Overloaded);
  check Alcotest.string "P.Serving" "serving" (p P.pp_health P.Serving);
  check Alcotest.string "P.Degraded" "degraded" (p P.pp_health P.Degraded);
  check Alcotest.string "P.txn" "7.42" (p P.pp_txn { P.client = 7; seq = 42 });
  check Alcotest.string "RC.Invalid_key" "invalid key (rejected locally)"
    (p RC.pp_error RC.Invalid_key);
  check Alcotest.string "RC.Breaker_open" "breaker open"
    (p RC.pp_error RC.Breaker_open);
  check Alcotest.string "RC.Deadline" "deadline exceeded"
    (p RC.pp_error RC.Deadline);
  check Alcotest.bool "RC.Exhausted" true
    (prefix "retries exhausted: " (p RC.pp_error (RC.Exhausted "timeout")));
  check Alcotest.bool "RC.Remote" true
    (prefix "remote: " (p RC.pp_error (RC.Remote P.Read_only)));
  check Alcotest.string "Rset.Invalid_key" "invalid key (rejected locally)"
    (p Bi_app.Replica_set.pp_error Bi_app.Replica_set.Invalid_key);
  check Alcotest.string "Rset.No_synced_replica" "no synced replica"
    (p Bi_app.Replica_set.pp_error Bi_app.Replica_set.No_synced_replica);
  check Alcotest.bool "Rset.Op_failed" true
    (prefix "operation failed"
       (p Bi_app.Replica_set.pp_error
          (Bi_app.Replica_set.Op_failed [ ("n0", RC.Deadline) ])))

let test_retryable () =
  check Alcotest.bool "Bad_crc retryable" true (P.retryable P.Bad_crc);
  check Alcotest.bool "Overloaded retryable" true (P.retryable P.Overloaded);
  List.iter
    (fun e -> check Alcotest.bool "definitive" false (P.retryable e))
    [
      P.Bad_key; P.Too_large; P.No_crc; P.Integrity; P.Read_only; P.Io "x";
      P.Wrong_shard 3;
    ]

let test_backoff_determinism () =
  let cfg = { RC.default_config with seed = 42; jitter_pm = 3 } in
  let sched c = List.init 8 (fun i -> RC.backoff c ~attempt:(i + 1)) in
  (* Same seed: bit-identical schedule, run to run. *)
  check (Alcotest.list Alcotest.int) "same seed, same schedule" (sched cfg)
    (sched cfg);
  (* A different seed moves each step by at most the jitter amplitude:
     the capped-exponential shape is seed-independent. *)
  let cfg' = { cfg with seed = 43 } in
  check Alcotest.bool "seeds differ somewhere" true (sched cfg <> sched cfg');
  List.iter2
    (fun a b ->
      check Alcotest.bool "seeds perturb only jitter" true
        (abs (a - b) <= 2 * cfg.jitter_pm))
    (sched cfg) (sched cfg');
  (* With jitter off, the schedule is exactly the capped exponential. *)
  let nojit = { cfg with jitter_pm = 0 } in
  check (Alcotest.list Alcotest.int) "capped exponential"
    [ 2; 4; 8; 16; 16; 16; 16; 16 ] (sched nojit);
  List.iter
    (fun a -> check Alcotest.bool "never negative" true (RC.backoff cfg ~attempt:a >= 0))
    [ 1; 2; 3; 10; 30; 62 ]

(* ------------------------------------------------------------------ *)
(* Duplicate-table boundaries *)


let put_txn_req ~client ~seq key value =
  P.Put { key; value; crc = P.crc32 value; txn = Some { P.client; seq } }

(* The per-client table keeps exactly [dup_capacity] entries (default 8):
   after seqs 1..8 every retry answers from the table; a 9th entry
   evicts only the oldest, whose retry then re-applies. *)
let test_dup_table_capacity_boundary () =
  let n = NC.create (NC.mem_store ()) in
  for seq = 1 to 8 do
    match NC.handle n (put_txn_req ~client:1 ~seq (Printf.sprintf "k%d" seq) "v") with
    | P.Done -> ()
    | _ -> Alcotest.fail "put refused"
  done;
  check Alcotest.int "eight applied" 8 (NC.applied n);
  for seq = 1 to 8 do
    ignore (NC.handle n (put_txn_req ~client:1 ~seq (Printf.sprintf "k%d" seq) "v"))
  done;
  check Alcotest.int "all eight retries hit the table" 8 (NC.dup_hits n);
  check Alcotest.int "no retry re-applied" 8 (NC.applied n);
  ignore (NC.handle n (put_txn_req ~client:1 ~seq:9 "k9" "v"));
  check Alcotest.int "ninth entry applies" 9 (NC.applied n);
  ignore (NC.handle n (put_txn_req ~client:1 ~seq:2 "k2" "v"));
  check Alcotest.int "seq 2 survived the eviction" 9 (NC.dup_hits n);
  ignore (NC.handle n (put_txn_req ~client:1 ~seq:1 "k1" "v"));
  check Alcotest.int "evicted seq 1 re-applies" 10 (NC.applied n)

(* The table tracks at most 64 distinct clients; the 65th evicts the
   least recently seen one. *)
let test_dup_table_client_lru () =
  let n = NC.create (NC.mem_store ()) in
  for client = 1 to 64 do
    ignore
      (NC.handle n (put_txn_req ~client ~seq:1 (Printf.sprintf "c%d" client) "v"))
  done;
  check Alcotest.int "sixty-four applied" 64 (NC.applied n);
  ignore (NC.handle n (put_txn_req ~client:65 ~seq:1 "c65" "v"));
  ignore (NC.handle n (put_txn_req ~client:2 ~seq:1 "c2" "v"));
  check Alcotest.int "client 2 still cached" 1 (NC.dup_hits n);
  ignore (NC.handle n (put_txn_req ~client:1 ~seq:1 "c1" "v"));
  check Alcotest.int "oldest client 1 was evicted: re-applied" 66 (NC.applied n)

(* A duplicate-table lookup refreshes the client's recency: a client
   whose retry just hit the table survives the 65th client's arrival;
   an untouched one is the eviction victim instead. *)
let test_dup_lookup_touch_ordering () =
  let n = NC.create (NC.mem_store ()) in
  for client = 1 to 64 do
    ignore
      (NC.handle n (put_txn_req ~client ~seq:1 (Printf.sprintf "c%d" client) "v"))
  done;
  ignore (NC.handle n (put_txn_req ~client:1 ~seq:1 "c1" "v"));
  check Alcotest.int "retry hits" 1 (NC.dup_hits n);
  ignore (NC.handle n (put_txn_req ~client:65 ~seq:1 "c65" "v"));
  ignore (NC.handle n (put_txn_req ~client:1 ~seq:1 "c1" "v"));
  check Alcotest.int "touched client 1 survives" 2 (NC.dup_hits n);
  ignore (NC.handle n (put_txn_req ~client:2 ~seq:1 "c2" "v"));
  check Alcotest.int "untouched client 2 was the victim: re-applied" 66
    (NC.applied n)

(* A released shard's clients leave the table and free their slots:
   clients 1..63 write shard 0, client 64 only shard 1.  Once shard 1 is
   released, client 65 takes client 64's slot, so the table holds 64
   clients and client 1's acked put is still answered from it. *)
let test_release_frees_dup_slot () =
  let nshards = 2 in
  let key_on shard i =
    let rec go j =
      let k = Printf.sprintf "s%d-%d" i j in
      if Bi_app.Shard_map.shard_of ~nshards k = shard then k else go (j + 1)
    in
    go 0
  in
  let n = NC.create (NC.mem_store ()) in
  NC.enable_sharding n ~nshards ~version:1 ~owned:[ 0; 1 ];
  let put ~client shard =
    match NC.handle n (put_txn_req ~client ~seq:1 (key_on shard client) "v") with
    | P.Done -> ()
    | _ -> Alcotest.fail "put refused"
  in
  for client = 1 to 63 do
    put ~client 0
  done;
  put ~client:64 1;
  ok (NC.release n ~shard:1);
  put ~client:65 0;
  let clients =
    List.sort_uniq compare
      (List.map (fun ({ P.client; _ }, _) -> client) (NC.dump_dups n))
  in
  check Alcotest.int "the table is full again" 64 (List.length clients);
  put ~client:1 0;
  check Alcotest.int "client 1's retry hits the table" 1 (NC.dup_hits n);
  check Alcotest.int "nothing re-applied" 65 (NC.applied n)

(* Against a dead endpoint with an oversized backoff, every sleep is
   clamped to the remaining deadline budget: on a manual clock the call
   ends at exactly [deadline] (the pre-clamp client overshot by a full
   backoff step), and the whole schedule is deterministic run to run. *)
let test_clamped_backoff_deadline () =
  let run () =
    let t_now = ref 0 in
    let clock =
      { RC.now = (fun () -> !t_now); sleep = (fun n -> t_now := !t_now + n) }
    in
    let ep = { RC.name = "down"; rpc = (fun _ -> Error "endpoint down") } in
    let cfg =
      {
        RC.default_config with
        max_attempts = 50;
        backoff_base = 100;
        backoff_cap = 400;
        jitter_pm = 7;
        breaker_threshold = 1_000;
        deadline = 250;
        seed = 11;
      }
    in
    let c = RC.create ~config:cfg ~client:3 clock ep in
    let r = RC.get c ~key:"k" in
    (r, !t_now, (RC.stats c).RC.attempts)
  in
  let r1, elapsed1, attempts1 = run () in
  (match r1 with
  | Error RC.Deadline -> ()
  | _ -> Alcotest.fail "expected Deadline");
  check Alcotest.int "clamp lands exactly on the deadline" 250 elapsed1;
  let _, elapsed2, attempts2 = run () in
  check Alcotest.int "same seed, same elapsed" elapsed1 elapsed2;
  check Alcotest.int "same seed, same attempts" attempts1 attempts2

(* Drive a resilient client on a manual clock through the full breaker
   cycle, and prove half-open admits exactly one probe: a reentrant call
   issued from inside the probe itself must fast-fail. *)
let test_breaker_half_open_single_probe () =
  let t_now = ref 0 in
  let clock =
    { RC.now = (fun () -> !t_now); sleep = (fun n -> t_now := !t_now + n) }
  in
  let cfg =
    {
      RC.default_config with
      max_attempts = 1;
      breaker_threshold = 2;
      breaker_cooldown = 10;
      deadline = 1_000_000;
    }
  in
  let failing = ref true in
  let probes = ref 0 in
  let self = ref None in
  let ep =
    {
      RC.name = "flaky";
      rpc =
        (fun _req ->
          (match !self with
          | Some c when RC.breaker_state c = RC.Half_open -> (
              incr probes;
              match RC.get c ~key:"other" with
              | Error RC.Breaker_open -> ()
              | _ -> Alcotest.fail "second call admitted during the probe")
          | _ -> ());
          if !failing then Error "endpoint down"
          else Ok (P.Value { value = "v"; crc = P.crc32 "v" }));
    }
  in
  let c = RC.create ~config:cfg ~client:9 clock ep in
  self := Some c;
  (match RC.get c ~key:"k" with
  | Error (RC.Exhausted _) -> ()
  | _ -> Alcotest.fail "first failure");
  check Alcotest.bool "still closed below threshold" true
    (RC.breaker_state c = RC.Closed);
  (match RC.get c ~key:"k" with
  | Error (RC.Exhausted _) -> ()
  | _ -> Alcotest.fail "second failure");
  (match RC.breaker_state c with
  | RC.Open_until _ -> ()
  | _ -> Alcotest.fail "breaker must open at the threshold");
  (match RC.get c ~key:"k" with
  | Error RC.Breaker_open -> ()
  | _ -> Alcotest.fail "open breaker must fast-fail");
  check Alcotest.int "fast-fail makes no attempt" 2 (RC.stats c).RC.attempts;
  (* Cooldown elapses; the endpoint recovers; the single probe recloses. *)
  t_now := !t_now + 11;
  failing := false;
  (match RC.get c ~key:"k" with
  | Ok (Some "v") -> ()
  | _ -> Alcotest.fail "probe should succeed");
  check Alcotest.int "exactly one probe ran" 1 !probes;
  check Alcotest.bool "reclosed" true (RC.breaker_state c = RC.Closed);
  let s = RC.stats c in
  check Alcotest.int "one open" 1 s.RC.breaker_opens;
  check Alcotest.int "one close" 1 s.RC.breaker_closes

(* The fault-injection positive control: under a scripted noisy plan a
   plain one-shot request is lost, the resilient client completes, and
   the plan shrinks to a single decision that still reproduces. *)
let test_fi_positive_control () =
  let c = Rs.positive_control () in
  check Alcotest.bool "plain client loses its request" true c.Rs.plain_failed;
  check Alcotest.bool "resilient client completes" true c.Rs.resilient_ok;
  check Alcotest.int "plan shrinks to one decision" 1 (List.length c.Rs.shrunk);
  check Alcotest.bool "shrunk plan still kills the plain client" true
    c.Rs.replay_fails

(* ------------------------------------------------------------------ *)
(* Per-node redo journal: record serde and recovery × migration *)


(* One of each record constructor, with non-trivial payloads. *)
let journal_vectors =
  [
    J.Mut
      {
        txn = Some { P.client = 3; seq = 7 };
        shard = 1;
        key = "k";
        put = Some ("value", P.crc32 "value");
        done_ = true;
      };
    J.Mut { txn = None; shard = 0; key = "gone"; put = None; done_ = false };
    J.Cancel { degraded = true };
    J.Snapshot
      {
        J.s_dups = [ (1, [ (3, 0, true); (2, 0, false) ]) ];
        s_sharding = Some (4, 2, [ 0; 2 ], [ 1 ]);
        s_degraded = false;
      };
    J.Enable { nshards = 4; version = 1; owned = [ 0; 1 ] };
    J.Adopt 2;
    J.Release 3;
    J.Freeze 0;
    J.Unfreeze 0;
    J.Map_version 9;
    J.Import { shard = 2; entries = [ ({ P.client = 5; seq = 1 }, true) ] };
  ]

let test_journal_roundtrip_vectors () =
  List.iter
    (fun r ->
      check Alcotest.bool "record roundtrips" true
        (J.decode_record (J.encode_record r) = Some r))
    journal_vectors;
  let stream = Bytes.concat Bytes.empty (List.map J.frame_record journal_vectors) in
  let records, torn = J.decode_stream stream in
  check Alcotest.bool "stream roundtrips" true (records = journal_vectors);
  check Alcotest.bool "clean stream is not torn" false torn

let test_journal_strict_prefix_rejected () =
  List.iter
    (fun r ->
      let b = J.encode_record r in
      for l = 0 to Bytes.length b - 1 do
        check Alcotest.bool "strict prefix rejected" true
          (J.decode_record (Bytes.sub b 0 l) = None)
      done;
      check Alcotest.bool "trailing byte rejected" true
        (J.decode_record (Bytes.cat b (Bytes.make 1 'x')) = None))
    journal_vectors

(* Totality under the shared corruption generator: neither the strict
   single-record decoder nor the stream decoder may raise, and whatever
   the stream decoder salvages is a prefix of what was written (the
   per-record CRC rejects everything from the damage on). *)
let test_journal_corrupt_fuzz () =
  let g = Bi_core.Gen.of_string "app/journal-fuzz" in
  let fp = Bi_fault.Fault_plan.corrupt_bytes in
  let stream =
    Bytes.concat Bytes.empty (List.map J.frame_record journal_vectors)
  in
  let is_prefix l = List.filteri (fun i _ -> i < List.length l) journal_vectors = l in
  for _ = 1 to 500 do
    let r = Bi_core.Gen.oneof g journal_vectors in
    ignore (J.decode_record (fp g (J.encode_record r)));
    let records, _torn = J.decode_stream (fp g stream) in
    check Alcotest.bool "salvage is a prefix of the original" true
      (is_prefix records)
  done

(* A checkpoint whose rename fails leaves the journal only in
   [/journal.new]; the next append must settle it first, or its record
   would start a fresh [/journal] and the next load would discard the
   snapshot. *)
let test_failed_replace_settles_before_append () =
  let files = Files.of_fs (K.fs (K.create ())) in
  let renames = ref 0 in
  let rename ~src ~dst =
    incr renames;
    if !renames = 1 then Error (P.Io "injected") else files.rename ~src ~dst
  in
  let sink = J.file_sink { files with rename } ~path:"/journal" in
  ok (sink.sink_append (Bytes.of_string "old;"));
  check Alcotest.bool "replace fails at the rename" true
    (Result.is_error (sink.sink_replace (Bytes.of_string "snapshot;")));
  ok (sink.sink_append (Bytes.of_string "new;"));
  check Alcotest.string "snapshot kept, then the append" "snapshot;new;"
    (Bytes.to_string (ok ((J.file_sink files ~path:"/journal").sink_read ())))

(* Satellite: recovery × migration.  A node recovers its duplicate table
   from the journal, then a live migration imports carried entries for
   the same client — the merge keeps the highest seqs per client
   (per-client seqs are monotone), so with [dup_capacity:2] the imported
   seq 3 plus the recovered seq 2 survive and the recovered seq 1 is the
   eviction victim. *)
let test_recovery_migration_merge () =
  let sink, _buf = J.mem_sink () in
  let store = NC.mem_store () in
  let a = NC.create ~dup_capacity:2 ~journal:(J.create sink) store in
  (match NC.handle a (put_txn_req ~client:9 ~seq:1 "ka" "v1") with
  | P.Done -> ()
  | _ -> Alcotest.fail "put seq 1");
  (match
     NC.handle a (P.Delete { key = "ka"; txn = Some { P.client = 9; seq = 2 } })
   with
  | P.Done -> ()
  | _ -> Alcotest.fail "delete seq 2");
  (* Crash: a fresh core over the durable store and journal. *)
  let b = NC.create ~dup_capacity:2 ~journal:(J.create sink) store in
  let r = NC.recover b in
  check Alcotest.int "both entries recovered" 2 r.NC.r_dup_entries;
  (* Only the key's last Mut, the delete, is redone: the store is already
     the pre-crash store. *)
  check Alcotest.bool "replay converges on the pre-crash store" true
    (NC.mem_contents store = []);
  (* The handoff carries a fresher entry for the same client. *)
  NC.import_dups b ~shard:0 [ ({ P.client = 9; seq = 3 }, P.Done) ];
  check Alcotest.bool "merge keeps the two highest seqs" true
    (List.map fst (NC.export_dups b ~shard:0)
    = [ { P.client = 9; seq = 2 }; { P.client = 9; seq = 3 } ]);
  (* Retries of the survivors answer from the table without applying. *)
  (match
     NC.handle b (P.Delete { key = "ka"; txn = Some { P.client = 9; seq = 2 } })
   with
  | P.Done -> ()
  | _ -> Alcotest.fail "retry seq 2 must hit the merged table");
  (match NC.handle b (put_txn_req ~client:9 ~seq:3 "kb" "v3") with
  | P.Done -> ()
  | _ -> Alcotest.fail "retry seq 3 must hit the merged table");
  check Alcotest.int "survivors answered from the table" 2 (NC.dup_hits b);
  check Alcotest.int "no re-apply for table hits" 0 (NC.applied b);
  (* The evicted seq 1 is below the table's horizon: it re-applies. *)
  (match NC.handle b (put_txn_req ~client:9 ~seq:1 "ka" "v1") with
  | P.Done -> ()
  | _ -> Alcotest.fail "evicted seq 1 re-applies");
  check Alcotest.int "eviction victim re-applied" 1 (NC.applied b)

(* Every core journals, so a node built without naming a journal
   commits through the same protocol as netd's: it checkpoints, ... *)
let test_default_node_checkpoints () =
  let n = NC.create (NC.mem_store ()) in
  (match NC.handle n (put_txn_req ~client:1 ~seq:1 "k" "v") with
  | P.Done -> ()
  | _ -> Alcotest.fail "put refused");
  ok (NC.checkpoint n);
  check Alcotest.int "one checkpoint" 1 (NC.checkpoints n)

(* ... a failed store save is journaled as a Mut voided by a Cancel, and
   degrades the node ... *)
let test_default_node_cancels_failed_save () =
  let store =
    NC.mem_store ~write_faults:(Bi_fault.Fault_plan.script [ Bi_fault.Fault_plan.Drop ]) ()
  in
  let n = NC.create store in
  (match NC.handle n (put_txn_req ~client:1 ~seq:1 "k" "v") with
  | P.Err (P.Io _) -> ()
  | _ -> Alcotest.fail "the save must fail");
  check Alcotest.bool "degraded" true (NC.degraded n);
  let r = NC.recover n in
  check Alcotest.int "two records" 2 r.NC.r_records;
  check Alcotest.int "the Mut is cancelled" 1 r.NC.r_cancelled;
  check Alcotest.bool "still degraded" true (NC.degraded n)

(* ... and a simulated node recovers its duplicate table on restart. *)
let test_sim_node_restart_recovers_dups () =
  let module World = Bi_app.Sim_world in
  let plan () = Bi_fault.Fault_plan.script [] in
  let w =
    World.create (Bi_core.Vtime.make ())
      [ World.node ~name:"n0" ~req_plan:(plan ()) ~resp_plan:(plan ()) () ]
  in
  let n = w.World.nodes.(0) in
  (match NC.handle n.World.core (put_txn_req ~client:1 ~seq:1 "k" "v") with
  | P.Done -> ()
  | _ -> Alcotest.fail "put refused");
  World.crash w 0;
  World.restart w 0;
  check Alcotest.bool "dup entries recovered" true
    (n.World.last_recovery.NC.r_dup_entries > 0);
  (match NC.handle n.World.core (put_txn_req ~client:1 ~seq:1 "k" "v") with
  | P.Done -> ()
  | _ -> Alcotest.fail "retry refused");
  check Alcotest.int "the retry hits the recovered table" 1
    (NC.dup_hits n.World.core)

(* ------------------------------------------------------------------ *)
(* Recovery cost and the full-replay reference *)

(* [store] with a count of the loads, saves and removes made through
   it. *)
let counting (store : NC.store) =
  let loads = ref 0 and saves = ref 0 and removes = ref 0 in
  ( {
      store with
      NC.load =
        (fun k ->
          incr loads;
          store.load k);
      save =
        (fun k v ->
          incr saves;
          store.save k v);
      remove =
        (fun k ->
          incr removes;
          store.remove k);
    },
    fun () -> (!loads, !saves, !removes) )

(* The benchmark's restart shape: 1,096 puts over 64 keys, no
   checkpoint.  Recovery loads each key once and writes nothing the
   store already holds. *)
let test_recovery_is_o_keys () =
  let sink, _ = J.mem_sink () in
  let store = NC.mem_store () in
  let j = J.create sink in
  let live = NC.create ~journal:j ~journal_checkpoint:max_int store in
  let handled req =
    match NC.handle live req with
    | P.Done | P.Missing -> ()
    | _ -> Alcotest.fail "request refused"
  in
  for i = 0 to 1095 do
    handled
      (put_txn_req ~client:1 ~seq:(i + 1)
         (Printf.sprintf "k%d" (i mod 64))
         (Printf.sprintf "%064d" i))
  done;
  let recover () =
    let counted, counts = counting store in
    let r = NC.recover (NC.create ~journal:(J.create sink) counted) in
    (r, counts ())
  in
  let io = Alcotest.(triple int int int) in
  let r, c = recover () in
  check io "(loads, saves, removes)" (64, 0, 0) c;
  check Alcotest.int "records" 1096 r.NC.r_records;
  check Alcotest.int "redone" 0 r.NC.r_redone;
  check Alcotest.int "skipped" 1096 r.NC.r_skipped;
  (* The commit-to-apply window: a Mut appended and never applied. *)
  ok
    (J.append j
       (J.Mut
          {
            txn = Some { P.client = 1; seq = 1097 };
            shard = 0;
            key = "k5";
            put = Some ("fresh", P.crc32 "fresh");
            done_ = true;
          }));
  let r, c = recover () in
  check io "unapplied Mut: (loads, saves, removes)" (64, 1, 0) c;
  check Alcotest.int "unapplied Mut redone" 1 r.NC.r_redone;
  (* A key put and then deleted: its last Mut finds it absent. *)
  handled (put_txn_req ~client:1 ~seq:1098 "gone" "x");
  handled (P.Delete { key = "gone"; txn = Some { P.client = 1; seq = 1099 } });
  let r, c = recover () in
  check io "put then delete: (loads, saves, removes)" (65, 0, 0) c;
  check Alcotest.int "nothing redone" 0 r.NC.r_redone

(* Whole-history replay: every non-cancelled Mut since the last
   Snapshot rewrites the store, in order.  It is the reference [recover]
   is checked against, with two wrong variants that the check must tell
   apart from it. *)
type reference = Full | Ignores_cancel | First_mut

let ref_dup_capacity = 4

(* The reference's observation, as [recovered]'s: store contents, the
   duplicate table and the degraded latch.  Its dup table is a model of
   [Node_core]'s: per client, entries newest first, [ref_dup_capacity]
   of them; the journals below have 3 clients, so the 64-client bound
   never evicts.  Their store never fails, so only [Cancel] and
   [Snapshot] records move the latch. *)
let reference variant records store =
  let arr = Array.of_list records in
  let n = Array.length arr in
  let start = ref 0 in
  Array.iteri (fun i r -> match r with J.Snapshot _ -> start := i | _ -> ()) arr;
  let dups = Hashtbl.create 4 and degraded = ref false and nshards = ref 1 in
  let entries c = Option.value ~default:[] (Hashtbl.find_opt dups c) in
  let keep c l = Hashtbl.replace dups c (List.filteri (fun i _ -> i < ref_dup_capacity) l) in
  let sweep s =
    List.iter
      (fun k ->
        if Bi_app.Shard_map.shard_of ~nshards:!nshards k = s then
          ignore (store.NC.remove k))
      (ok (store.keys ()))
  in
  let written = Hashtbl.create 8 in
  for i = !start to n - 1 do
    match arr.(i) with
    | J.Snapshot { s_dups; s_sharding; s_degraded } ->
        Hashtbl.reset dups;
        List.iter (fun (c, l) -> Hashtbl.replace dups c l) s_dups;
        nshards := (match s_sharding with Some (k, _, _, _) -> k | None -> 1);
        degraded := s_degraded
    | J.Cancel { degraded = d } -> if d then degraded := true
    | J.Mut { txn; shard; key; put; done_ } ->
        let cancelled =
          variant <> Ignores_cancel
          && i + 1 < n
          && match arr.(i + 1) with J.Cancel _ -> true | _ -> false
        in
        if not cancelled then begin
          if variant <> First_mut || not (Hashtbl.mem written key) then begin
            Hashtbl.replace written key ();
            match put with
            | Some (value, crc) -> ok (store.save key { value; crc })
            | None -> if done_ then ignore (ok (store.remove key))
          end;
          Option.iter
            (fun { P.client; seq } ->
              keep client
                ((seq, shard, done_)
                :: List.filter (fun (s, _, _) -> s <> seq) (entries client)))
            txn
        end
    | J.Import { shard; entries = l } ->
        List.iter
          (fun ({ P.client; seq }, done_) ->
            keep client
              ((seq, shard, done_)
               :: List.filter (fun (s, _, _) -> s <> seq) (entries client)
              |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare b a)))
          l
    | J.Enable { nshards = k; _ } -> nshards := k
    | J.Adopt s -> sweep s
    | J.Release s ->
        Hashtbl.filter_map_inplace
          (fun _ l ->
            match List.filter (fun (_, sh, _) -> sh <> s) l with
            | [] -> None
            | l -> Some l)
          dups;
        sweep s
    | J.Freeze _ | J.Unfreeze _ | J.Map_version _ -> ()
  done;
  let dump =
    Hashtbl.fold
      (fun client l acc ->
        List.map
          (fun (seq, shard, done_) ->
            ({ P.client; seq }, (shard, if done_ then P.Done else P.Missing)))
          l
        @ acc)
      dups []
    |> List.sort compare
  in
  (NC.mem_contents store, dump, !degraded)

let recovered sink store =
  let core = NC.create ~dup_capacity:ref_dup_capacity ~journal:(J.create sink) store in
  ignore (NC.recover core : NC.recovery);
  (NC.mem_contents store, NC.dump_dups core, NC.degraded core)

let store_of pairs =
  let s = NC.mem_store () in
  List.iter (fun (k, v) -> ok (s.save k v)) pairs;
  s

let stored_pairs (s : NC.store) =
  List.filter_map
    (fun k -> Option.map (fun v -> (k, v)) (ok (s.load k)))
    (ok (s.keys ()))

(* A checkpoint keeps the order clients were last seen in: 64 clients
   seen 64 down to 1, then a checkpoint.  On the live node and on one
   recovered from the same journal and store, client 65 evicts client
   64, the one seen longest ago, and client 1's retry is answered from
   the table. *)
let test_recovery_keeps_eviction_order () =
  let sink, _ = J.mem_sink () in
  let store = NC.mem_store () in
  let live =
    NC.create ~journal:(J.create sink) ~journal_checkpoint:max_int store
  in
  for client = 64 downto 1 do
    match
      NC.handle live
        (put_txn_req ~client ~seq:1 (Printf.sprintf "c%d" client) "v")
    with
    | P.Done -> ()
    | _ -> Alcotest.fail "put refused"
  done;
  ok (NC.checkpoint live);
  let recovered =
    NC.create ~journal:(J.create sink) ~journal_checkpoint:max_int store
  in
  ignore (NC.recover recovered : NC.recovery);
  check Alcotest.bool "same table" true
    (NC.dump_dups live = NC.dump_dups recovered);
  List.iter
    (fun (name, n) ->
      let applied = NC.applied n in
      ignore (NC.handle n (put_txn_req ~client:65 ~seq:1 "c65" "v"));
      ignore (NC.handle n (put_txn_req ~client:1 ~seq:1 "c1" "v"));
      check Alcotest.int (name ^ ": client 1's retry hits") 1 (NC.dup_hits n);
      check Alcotest.int (name ^ ": only client 65 applied") (applied + 1)
        (NC.applied n))
    [ ("live", live); ("recovered", recovered) ]

(* A random journal and the store states to recover it onto: the live
   store, an empty one, and the live store with some keys rolled back to
   what they held before their last Mut (a crash between that Mut's
   commit and its apply).  The journal has puts, deletes of present and
   absent keys, Mut+Cancel pairs appended behind the node (as a failed
   apply leaves them), checkpoints, migration imports and, on a sharded
   node, releases and adoptions; it may end with a Mut never
   applied. *)
let random_history seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let sink, _ = J.mem_sink () in
  let j = J.create sink in
  let store = NC.mem_store () in
  let node =
    NC.create ~dup_capacity:ref_dup_capacity ~journal:j
      ~journal_checkpoint:max_int store
  in
  let nshards = 4 and sharded = int 2 = 0 in
  if sharded then NC.enable_sharding node ~nshards ~version:1 ~owned:[ 0; 1; 2 ];
  let shard key =
    if sharded then Bi_app.Shard_map.shard_of ~nshards key else 0
  in
  let owned s =
    match NC.shard_state node with
    | None -> true
    | Some (_, owned, _) -> List.mem s owned
  in
  let keys = Array.init 6 (Printf.sprintf "k%d") in
  let seqs = Array.make 3 0 in
  let txn () =
    let c = int 3 in
    seqs.(c) <- seqs.(c) + 1;
    Some { P.client = c + 1; seq = seqs.(c) }
  in
  let value () = Printf.sprintf "v%d" (int 3) in
  (* Each key's stored value before its newest Mut since the last
     checkpoint. *)
  let before = Hashtbl.create 8 in
  let mutate key req =
    let pre = ok (store.load key) in
    match NC.handle node req with
    | P.Done | P.Missing -> Hashtbl.replace before key pre
    | _ -> ()
  in
  let append_mut key put =
    let put = Option.map (fun v -> (v, P.crc32 v)) put in
    let done_ = put <> None || ok (store.load key) <> None in
    ok (J.append j (J.Mut { txn = txn (); shard = shard key; key; put; done_ }))
  in
  for _ = 1 to 10 + int 40 do
    let key = keys.(int (Array.length keys)) in
    match int 20 with
    | 0 | 1 | 2 | 3 | 4 | 5 ->
        let v = value () in
        mutate key (P.Put { key; value = v; crc = P.crc32 v; txn = txn () })
    | 6 | 7 | 8 | 9 -> mutate key (P.Delete { key; txn = txn () })
    | 10 | 11 | 12 ->
        append_mut key (if int 2 = 0 then Some (value ()) else None);
        ok (J.append j (J.Cancel { degraded = int 4 = 0 }))
    | 13 ->
        ok (NC.checkpoint node);
        Hashtbl.reset before
    | 14 | 15 ->
        let c = int 3 in
        seqs.(c) <- seqs.(c) + 1;
        NC.import_dups node ~shard:(shard key)
          [
            ( { P.client = c + 1; seq = seqs.(c) },
              if int 2 = 0 then P.Done else P.Missing );
          ]
    | _ ->
        if sharded then
          let s = shard key in
          if owned s then ignore (NC.release node ~shard:s)
          else ignore (NC.adopt node ~shard:s)
  done;
  (let key = keys.(int (Array.length keys)) in
   if int 3 = 0 && owned (shard key) then begin
     Hashtbl.replace before key (ok (store.load key));
     append_mut key (Some (value ()))
   end);
  let live = stored_pairs store in
  let rolled =
    Hashtbl.fold
      (fun k pre acc ->
        if int 2 = 0 then acc
        else
          List.remove_assoc k acc
          @ match pre with Some v -> [ (k, v) ] | None -> [])
      before live
  in
  (sink, [ ("live", live); ("empty", []); ("rolled back", rolled) ])

let test_recovery_matches_full_replay () =
  let disagree = ref [] in
  for seed = 1 to 300 do
    let sink, states = random_history seed in
    let records = fst (ok (J.load (J.create sink))) in
    List.iter
      (fun (name, pairs) ->
        let got = recovered sink (store_of pairs) in
        if got <> reference Full records (store_of pairs) then
          Alcotest.failf "seed %d, %s store: recovery differs from full replay"
            seed name;
        List.iter
          (fun v ->
            if reference v records (store_of pairs) <> got then
              disagree := v :: !disagree)
          [ Ignores_cancel; First_mut ])
      states
  done;
  check Alcotest.bool "a reference that ignores Cancel is caught" true
    (List.mem Ignores_cancel !disagree);
  check Alcotest.bool "a reference that redoes first Muts is caught" true
    (List.mem First_mut !disagree)

(* ------------------------------------------------------------------ *)
(* Shard migration *)

module SM = Bi_app.Shard_map
module SR = Bi_app.Shard_router

(* One migration flips the map once: its version moves by exactly one,
   and every node's shard state quotes the new version. *)
let test_migration_bumps_version_once () =
  let module World = Bi_app.Sim_world in
  let plan () = Bi_fault.Fault_plan.script [] in
  let sched = Bi_core.Vtime.make () in
  let w =
    World.create sched
      (List.init 2 (fun i ->
           World.node ~name:(Printf.sprintf "n%d" i) ~req_plan:(plan ())
             ~resp_plan:(plan ()) ()))
  in
  let map = SM.create ~nshards:4 ~nodes:2 in
  Array.iteri
    (fun i n ->
      NC.enable_sharding n.World.core ~nshards:4 ~version:(SM.version map)
        ~owned:(SM.shards_of_node map ~node:i))
    w.World.nodes;
  let c =
    SR.cluster ~map ~admins:(Array.init 2 (World.admin w))
      ~endpoints:
        (Array.init 2 (fun i -> World.endpoint w i ~attempt_timeout:10))
  in
  let r =
    SR.connect ~config:(World.patient_config 1) ~client:1 c (World.clock w)
  in
  let shard = SM.shard_of_key map "k" in
  let to_ = 1 - SM.node_of map ~shard in
  let put = ref (Error RC.Breaker_open) and mig = ref (Error "not run") in
  Bi_core.Vtime.spawn sched (fun () ->
      put := SR.put r ~key:"k" ~value:"v";
      mig := SR.migrate r ~shard ~to_);
  ignore (Bi_core.Vtime.run ~tick:(fun () -> World.tick w) sched : int);
  check Alcotest.bool "put acked" true (!put = Ok ());
  check Alcotest.bool "migrated" true (!mig = Ok ());
  let v = SM.version map + 1 in
  check Alcotest.int "one version bump" v (SM.version (SR.map c));
  check Alcotest.int "shard on the target" to_ (SM.node_of (SR.map c) ~shard);
  Array.iteri
    (fun i n ->
      match NC.shard_state n.World.core with
      | None -> Alcotest.fail "node left the cluster"
      | Some (version, owned, frozen) ->
          check Alcotest.int "node quotes the new version" v version;
          check Alcotest.bool "target alone owns the shard" (i = to_)
            (List.mem shard owned);
          check (Alcotest.list Alcotest.int) "nothing frozen" [] frozen)
    w.World.nodes

(* ------------------------------------------------------------------ *)
(* Bounded fair admission queue *)

module Adm = Bi_app.Admission

let test_admission_capacity_boundary () =
  let q = Adm.create ~capacity:3 () in
  List.iter
    (fun c -> check Alcotest.bool "admitted" true (Adm.offer q ~client:c c))
    [ 0; 1; 2 ];
  (* Exactly at capacity: the next offer is shed, not queued. *)
  check Alcotest.bool "fourth shed" false (Adm.offer q ~client:3 3);
  check Alcotest.int "length pinned" 3 (Adm.length q);
  check Alcotest.int "one shed" 1 (Adm.shed q);
  check Alcotest.bool "invariants" true (Adm.check_invariants q);
  (* One take frees exactly one slot. *)
  check Alcotest.bool "has item" true (Adm.take q <> None);
  check Alcotest.bool "slot reopened" true (Adm.offer q ~client:3 3);
  check Alcotest.bool "full again" false (Adm.offer q ~client:4 4)

let test_admission_fifo_per_client () =
  let q = Adm.create ~capacity:8 () in
  List.iter (fun i -> ignore (Adm.offer q ~client:7 i)) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ ->
      match Adm.take q with Some (7, x) -> x | _ -> -1)
  in
  check (Alcotest.list Alcotest.int) "served in offer order" [ 1; 2; 3; 4 ]
    order

let test_admission_round_robin_64 () =
  let nclients = 64 in
  let q = Adm.create ~capacity:(2 * nclients) () in
  for round = 1 to 2 do
    for c = 0 to nclients - 1 do
      check Alcotest.bool "admitted" true
        (Adm.offer q ~client:c ((100 * c) + round))
    done
  done;
  (* Dispatch cycles all 64 clients in order before revisiting any. *)
  for round = 1 to 2 do
    for c = 0 to nclients - 1 do
      match Adm.take q with
      | Some (c', x) ->
          check Alcotest.int "client in rotation order" c c';
          check Alcotest.int "that client's next item" ((100 * c) + round) x
      | None -> Alcotest.fail "queue ran dry"
    done
  done;
  check Alcotest.bool "drained" true (Adm.is_empty q)

(* ------------------------------------------------------------------ *)
(* Kernel schedule pins *)

(* For each traced netd world of the nd suite: the digest of both
   kernels' syscall traces, the tick at which the clients finished and
   the tick at which the world stopped.  Any change to when a thread
   runs, parks or wakes moves these, so a kernel change that claims to
   keep every schedule must leave them as they are. *)
let trace_digest k =
  let b = Buffer.create 65536 in
  List.iter
    (fun (pid, req, resp) ->
      Buffer.add_string b (string_of_int pid);
      Buffer.add_bytes b (Bi_kernel.Sysabi.encode_request req);
      Buffer.add_bytes b (Bi_kernel.Sysabi.encode_response resp))
    (K.trace k);
  Digest.to_hex (Digest.string (Buffer.contents b))

let schedule_pins =
  [
    ( "quiet",
      ( ( "41acb03843bb6b088aefe44ac0123b36",
          "357cbeed0c24b1c5dec8d6e1a8c8f894" ),
        (26, 31) ) );
    ( "faulty-link",
      ( ( "a225c1b38e42dc93f07876ca0e493840",
          "ed9abadff68087845a7b3f1d6cca5af5" ),
        (53, 68) ) );
    ( "crash-respawn",
      ( ( "eac1b2629879ed0b86c79669d3815f3a",
          "947f5c148400332c288cac26b3c9fdaa" ),
        (26, 125) ) );
  ]

let test_schedule_pins () =
  let worlds = Bi_netd.Nd_check.trace_worlds () in
  check
    Alcotest.(list string)
    "worlds" (List.map fst schedule_pins)
    (List.map (fun (name, _, _, _) -> name) worlds);
  List.iter
    (fun (name, server, client, finish) ->
      let timer = (K.machine server).Bi_hw.Machine.timer in
      let stopped = Int64.to_int (Bi_hw.Device.Timer.now timer) in
      check
        Alcotest.(pair (pair string string) (pair int int))
        (name ^ ": (server, client) trace digests, (finish, stop) ticks")
        (List.assoc name schedule_pins)
        ((trace_digest server, trace_digest client), (finish, stopped)))
    worlds

(* A world whose shutdown never lands.  Under this link plan a corrupted
   ARP frame leaves the server's neighbour cache holding a wrong MAC for
   the client, so netd serves nothing, the clients give up by tick 7440
   and no [Shutdown] is acknowledged; netd stays parked waiting for
   work, so the world sits idle until the suite's tick bound cuts it.
   Its VC, run the way the verifier runs it, must say why. *)
let test_unfinished_world_is_cut () =
  let module Nd = Bi_netd.Nd_check in
  let vc =
    Nd.vc_lin_faulty ~id:"nd/lin/shutdown-never-lands"
      (Nd.rates_mixed, 40, 905) ~seed:5
  in
  match Bi_core.Vc.catch vc.Bi_core.Vc.check with
  | Bi_core.Vc.Falsified why ->
      check Alcotest.string "reason"
        (Printf.sprintf
           "exception: world cut at tick %d: netd never shut down (clients \
            done at tick 7440)"
           Nd.max_world_ticks)
        why
  | o -> Alcotest.failf "expected Falsified, got %a" Bi_core.Vc.pp_outcome o

(* A client holding an idle connection while another sends [Shutdown]:
   netd closes the connection before it exits, so the idle client's
   recv, which has no deadline, sees end of stream.  netd's acceptor and
   readers wait with no deadline, so no recv or accept of the server's
   answers [E_again], and the world ends on its own once netd has exited
   and the client is done. *)
let test_shutdown_closes_idle_connection () =
  let server = K.create ~ip:ip_server () in
  let client = K.create ~ip:ip_client () in
  K.connect server client;
  let netd = Bi_netd.Netd.install server in
  K.set_trace server true;
  let idle_end = ref (Error Bi_kernel.Sysabi.E_nosys) in
  K.register_program client "cli" (fun s _ ->
      match U.tcp_connect s ~ip:ip_server ~port:Bi_app.Storage_node.port with
      | Error _ -> ()
      | Ok conn ->
          (* A's Ping is answered, so netd has accepted A's connection. *)
          ignore (U.tcp_send s ~conn (Bytes.to_string (P.encode_req P.Ping)));
          let rec await_pong buf =
            if P.decode_resp buf ~off:0 = None then
              match U.tcp_recv s conn with
              | Ok chunk when chunk <> "" ->
                  await_pong (Bytes.cat buf (Bytes.of_string chunk))
              | _ -> ()
          in
          await_pong Bytes.empty;
          let b = Nd_client.make s ~ip:ip_server () in
          ignore (Nd_client.rpc b P.Shutdown);
          Nd_client.close b;
          idle_end := U.tcp_recv s conn);
  ignore (K.spawn server ~prog:"netd" ~arg:"");
  ignore (K.spawn client ~prog:"cli" ~arg:"");
  let timer = (K.machine server).Bi_hw.Machine.timer in
  let now () = Int64.to_int (Bi_hw.Device.Timer.now timer) in
  let cut = Bi_netd.Nd_check.max_world_ticks in
  (try K.run_pair ~on_tick:(fun () -> if now () >= cut then raise Exit) server client
   with Exit -> ());
  no_crash server;
  no_crash client;
  check
    (Alcotest.result Alcotest.string
       (Alcotest.testable Bi_kernel.Sysabi.pp_err ( = )))
    "idle connection's recv" (Ok "") !idle_end;
  check Alcotest.bool "netd's last run finished" true
    (match Bi_netd.Netd.latest_run netd with
    | Some run -> run.Bi_netd.Netd.finished
    | None -> false);
  check Alcotest.bool
    (Printf.sprintf "stopped at tick %d, before %d" (now ()) cut)
    true (now () < cut);
  check Alcotest.int "server recv/accept answered E_again" 0
    (List.length
       (List.filter
          (function
            | ( _,
                (Bi_kernel.Sysabi.Tcp_recv _ | Bi_kernel.Sysabi.Tcp_accept _),
                Bi_kernel.Sysabi.R_err Bi_kernel.Sysabi.E_again ) ->
                true
            | _ -> false)
          (K.trace server)))

(* A supervisor SIGKILLs and respawns netd [cycles] times.  In each
   life a new client (id epoch + 1) waits for the pong of the new epoch,
   then runs [life]; it shuts the last life down.  Returns the server,
   the installation and, oldest first, what [observe] answered of each
   dead run as its process died. *)
let netd_lives ~cycles ~observe life =
  let module Netd = Bi_netd.Netd in
  let server = K.create ~ip:ip_server () in
  let client = K.create ~ip:ip_client () in
  K.connect server client;
  let netd = Netd.install server in
  let died = ref [] and lives_done = ref 0 in
  K.register_program server "supervisor" (fun s _ ->
      let spawn () =
        match U.spawn s ~prog:"netd" ~arg:"" with
        | Ok pid -> pid
        | Error _ -> failwith "spawn netd"
      in
      let pid = ref (spawn ()) in
      for life = 1 to cycles do
        while !lives_done < life do
          U.sleep s 1
        done;
        ignore (U.kill s ~pid:!pid ~signal:9);
        ignore (U.wait s !pid);
        (match Netd.latest_run netd with
        | Some run -> died := observe run :: !died
        | None -> failwith "no run");
        pid := spawn ()
      done;
      ignore (U.wait s !pid));
  K.register_program client "cli" (fun s _ ->
      for epoch = 0 to cycles do
        let net, c =
          Nd_client.create ~attempt_ticks:50 ~client:(epoch + 1) s ~ip:ip_server
        in
        let rec await tries =
          match Nd_client.rpc net P.Ping with
          | Ok (P.Pong { epoch = e; _ }) when e = epoch -> ()
          | _ when tries > 0 ->
              U.sleep s 1;
              await (tries - 1)
          | _ -> failwith "no pong from the new epoch"
        in
        await 1000;
        life c epoch;
        if epoch = cycles then ignore (Nd_client.rpc net P.Shutdown);
        Nd_client.close net;
        lives_done := epoch + 1
      done);
  ignore (K.spawn server ~prog:"supervisor" ~arg:"");
  ignore (K.spawn client ~prog:"cli" ~arg:"");
  K.run_pair server client;
  no_crash server;
  no_crash client;
  (server, netd, List.rev !died)

let observe_core core = (NC.applied core, NC.dup_hits core, NC.dump_dups core)

(* Five lives in which the client puts three keys and retries one of
   them under the same txn.  Every run but the newest then holds a
   retired core: not the core that served, but one with the same
   counters and dup table, which refuses a put without touching the
   disk. *)
let test_netd_retires_dead_runs () =
  let module Netd = Bi_netd.Netd in
  let cycles = 5 in
  let server, netd, died =
    netd_lives ~cycles
      ~observe:(fun (r : Netd.run) -> (r.run_core, observe_core r.run_core))
      (fun c epoch ->
        let txn = { P.client = epoch + 1; seq = 100 } in
        List.iter
          (fun put -> match put () with Ok () -> () | Error _ -> failwith "put")
          [
            (fun () -> RC.put c ~key:"a" ~value:"1");
            (fun () -> RC.put c ~key:"b" ~value:"2");
            (fun () -> RC.put_txn c ~txn ~key:"c" ~value:"3");
            (fun () -> RC.put_txn c ~txn ~key:"c" ~value:"3");
          ])
  in
  let runs = Netd.runs netd in
  check Alcotest.(list int) "epochs" (List.init (cycles + 1) Fun.id)
    (List.map (fun (r : Netd.run) -> r.run_epoch) runs);
  let retired = List.filteri (fun i _ -> i < cycles) runs in
  let disk = (K.machine server).Bi_hw.Machine.disk in
  List.iter2
    (fun (run : Netd.run) (live, seen) ->
      let e = Printf.sprintf "epoch %d: " run.run_epoch in
      check Alcotest.bool (e ^ "core retired") true (run.run_core != live);
      check Alcotest.bool (e ^ "three puts, one dup hit") true
        (let applied, hits, _ = seen in
         applied = 3 && hits = 1);
      check Alcotest.bool (e ^ "counters and dups as when it died") true
        (observe_core run.run_core = seen);
      let io = Bi_hw.Device.Disk.io_count disk in
      check Alcotest.bool (e ^ "a put is refused") true
        (match NC.handle run.run_core (put_txn_req ~client:99 ~seq:1 "z" "9") with
        | P.Err (P.Io _) -> true
        | _ -> false);
      check Alcotest.int (e ^ "disk I/Os") io (Bi_hw.Device.Disk.io_count disk))
    retired died;
  check Alcotest.bool "the newest run finished" true
    (match Netd.latest_run netd with Some r -> r.finished | None -> false)

(* Twenty lives that only answer the pings: the dead runs look the same,
   so netd keeps them as one record, and [runs] still gives every epoch
   its own run, whose core answers that epoch and what the run's core
   answered when it died.  Twenty more such lives grow what the
   installation reaches by about 9 words a life (the kernel's console
   lines, and the supervisor's list of what it saw), where a record per
   dead run took about 50. *)
let test_netd_identical_lives_share_a_record () =
  let module Netd = Bi_netd.Netd in
  let ping_lives cycles observe =
    netd_lives ~cycles ~observe (fun _ _ -> ())
  in
  let words cycles =
    let _, netd, _ = ping_lives cycles ignore in
    Obj.reachable_words (Obj.repr netd)
  in
  let grown = words 40 - words 20 in
  check Alcotest.bool
    (Printf.sprintf "20 more lives retain %d words, under 20 x 16" grown)
    true (grown < 20 * 16);
  let cycles = 20 in
  let _, netd, died =
    ping_lives cycles (fun (r : Netd.run) ->
        (r.run_epoch, observe_core r.run_core))
  in
  let runs = Netd.runs netd in
  check Alcotest.(list int) "epochs" (List.init (cycles + 1) Fun.id)
    (List.map (fun (r : Netd.run) -> r.run_epoch) runs);
  List.iter
    (fun (r : Netd.run) ->
      check Alcotest.int "the core's epoch" r.run_epoch (NC.epoch r.run_core))
    runs;
  List.iter2
    (fun (r : Netd.run) (epoch, seen) ->
      check Alcotest.int "dead run's epoch" epoch r.run_epoch;
      check Alcotest.bool
        (Printf.sprintf "epoch %d: counters and dups as when it died"
           r.run_epoch)
        true
        (observe_core r.run_core = seen))
    (List.filteri (fun i _ -> i < cycles) runs)
    died

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bi_app"
    [
      ( "protocol",
        [
          Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "valid_key" `Quick test_valid_key;
          prop_req_frame_roundtrip;
          prop_resp_frame_roundtrip;
          Alcotest.test_case "partial frame" `Quick test_partial_frame_incomplete;
          Alcotest.test_case "two frames" `Quick test_two_frames_in_buffer;
        ] );
      ( "spec",
        [
          Alcotest.test_case "basics" `Quick test_store_spec_basics;
          Alcotest.test_case "rejects" `Quick test_store_spec_rejects;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "basic ops" `Quick test_e2e_basic_ops;
          Alcotest.test_case "large value" `Quick test_e2e_large_value;
          Alcotest.test_case "oversize rejected" `Quick test_e2e_oversized_rejected;
          Alcotest.test_case "invalid key rejected" `Quick test_e2e_invalid_key_rejected;
          Alcotest.test_case "refines store spec" `Quick test_e2e_refines_store_spec;
          Alcotest.test_case "corruption detected" `Quick test_e2e_corruption_detected;
          Alcotest.test_case "sequential clients" `Quick test_e2e_sequential_clients;
          Alcotest.test_case "persistence across mount" `Quick test_e2e_persistence_across_mount;
          Alcotest.test_case "usys store runs fs_store's protocol" `Quick
            test_usys_store_is_fs_store_protocol;
        ] );
      ( "files",
        [
          Alcotest.test_case "backends agree on one script" `Quick
            test_files_backend_parity;
          Alcotest.test_case "header errors agree" `Quick
            test_store_header_errors;
          Alcotest.test_case "usys journal is fs_sink" `Quick
            test_usys_journal_is_fs_sink;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "pp_error coverage" `Quick test_pp_error_coverage;
          Alcotest.test_case "retryable classification" `Quick test_retryable;
          Alcotest.test_case "backoff determinism" `Quick test_backoff_determinism;
          Alcotest.test_case "dup-table capacity boundary" `Quick
            test_dup_table_capacity_boundary;
          Alcotest.test_case "dup-table client LRU" `Quick
            test_dup_table_client_lru;
          Alcotest.test_case "dup-lookup touch ordering" `Quick
            test_dup_lookup_touch_ordering;
          Alcotest.test_case "a release frees dup-table slots" `Quick
            test_release_frees_dup_slot;
          Alcotest.test_case "clamped backoff stops at deadline" `Quick
            test_clamped_backoff_deadline;
          Alcotest.test_case "breaker half-open single probe" `Quick
            test_breaker_half_open_single_probe;
          Alcotest.test_case "fault-injection positive control" `Quick
            test_fi_positive_control;
        ] );
      ( "journal",
        [
          Alcotest.test_case "record vectors roundtrip" `Quick
            test_journal_roundtrip_vectors;
          Alcotest.test_case "strict prefixes rejected" `Quick
            test_journal_strict_prefix_rejected;
          Alcotest.test_case "decoders total under corruption" `Quick
            test_journal_corrupt_fuzz;
          Alcotest.test_case "recovery merges with migration imports" `Quick
            test_recovery_migration_merge;
          Alcotest.test_case "failed replace settles before append" `Quick
            test_failed_replace_settles_before_append;
          Alcotest.test_case "a default node checkpoints" `Quick
            test_default_node_checkpoints;
          Alcotest.test_case "a default node cancels a failed save" `Quick
            test_default_node_cancels_failed_save;
          Alcotest.test_case "a sim node recovers its dups on restart" `Quick
            test_sim_node_restart_recovers_dups;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "recovery is O(keys)" `Quick test_recovery_is_o_keys;
          Alcotest.test_case "agrees with full replay" `Quick
            test_recovery_matches_full_replay;
          Alcotest.test_case "a checkpoint keeps the eviction order" `Quick
            test_recovery_keeps_eviction_order;
        ] );
      ( "shard",
        [
          Alcotest.test_case "one migration bumps the version once" `Quick
            test_migration_bumps_version_once;
        ] );
      ( "admission",
        [
          Alcotest.test_case "capacity boundary" `Quick
            test_admission_capacity_boundary;
          Alcotest.test_case "FIFO per client" `Quick
            test_admission_fifo_per_client;
          Alcotest.test_case "round-robin over 64 clients" `Quick
            test_admission_round_robin_64;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "netd worlds' traces and finish ticks" `Quick
            test_schedule_pins;
          Alcotest.test_case "a world whose shutdown never lands is cut"
            `Quick test_unfinished_world_is_cut;
          Alcotest.test_case "shutdown closes an idle connection and ends"
            `Quick test_shutdown_closes_idle_connection;
        ] );
      ( "netd",
        [
          Alcotest.test_case "respawns retire the cores of dead runs" `Quick
            test_netd_retires_dead_runs;
          Alcotest.test_case "identical lives share one record" `Quick
            test_netd_identical_lives_share_a_record;
        ] );
    ]
