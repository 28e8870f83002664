module Vc = Bi_core.Vc
module Gen = Bi_core.Gen
module Disk = Bi_hw.Device.Disk

(* ------------------------------------------------------------------ *)
(* Abstraction function                                                *)

let read_all fs path =
  match Fs.stat fs path with
  | Error _ -> None
  | Ok { Fs.kind = Fs.Dir; _ } -> None
  | Ok { Fs.size; ino; _ } -> (
      match Fs.read_ino fs ~ino ~off:0 ~len:size with
      | Error _ -> None
      | Ok b -> Some (Bytes.to_string b))

let view fs =
  let acc = ref [ ("/", Fs_spec.Dir) ] in
  let rec walk dir =
    match Fs.readdir fs dir with
    | Error _ -> ()
    | Ok names ->
        List.iter
          (fun name ->
            let path = if dir = "/" then "/" ^ name else dir ^ "/" ^ name in
            match Fs.stat fs path with
            | Error _ -> ()
            | Ok { Fs.kind = Fs.Dir; _ } ->
                acc := (path, Fs_spec.Dir) :: !acc;
                walk path
            | Ok _ -> (
                match read_all fs path with
                | Some contents -> acc := (path, Fs_spec.File contents) :: !acc
                | None -> ()))
          names
  in
  walk "/";
  Fs_spec.of_entries !acc

(* ------------------------------------------------------------------ *)
(* Refinement instance                                                 *)

module Impl = struct
  type t = Fs.t
  type op = Fs_spec.op
  type ret = Fs_spec.ret

  let step fs = function
    | Fs_spec.Create p -> (
        match Fs.create fs p with
        | Ok () -> Fs_spec.Done
        | Error e -> Fs_spec.Error e)
    | Fs_spec.Mkdir p -> (
        match Fs.mkdir fs p with
        | Ok () -> Fs_spec.Done
        | Error e -> Fs_spec.Error e)
    | Fs_spec.Unlink p -> (
        match Fs.unlink fs p with
        | Ok () -> Fs_spec.Done
        | Error e -> Fs_spec.Error e)
    | Fs_spec.Rmdir p -> (
        match Fs.rmdir fs p with
        | Ok () -> Fs_spec.Done
        | Error e -> Fs_spec.Error e)
    | Fs_spec.Rename (src, dst) -> (
        match Fs.rename fs ~src ~dst with
        | Ok () -> Fs_spec.Done
        | Error e -> Fs_spec.Error e)
    | Fs_spec.Readdir p -> (
        match Fs.readdir fs p with
        | Ok names -> Fs_spec.Names (List.sort compare names)
        | Error e -> Fs_spec.Error e)
    | Fs_spec.Stat p -> (
        match Fs.stat fs p with
        | Ok { Fs.kind; size; _ } ->
            Fs_spec.Statd { dir = kind = Fs.Dir; size }
        | Error e -> Fs_spec.Error e)
    | Fs_spec.Read { path; off; len } -> (
        match Fs.stat fs path with
        | Error e -> Fs_spec.Error e
        | Ok { Fs.kind = Fs.Dir; _ } -> Fs_spec.Error Fs.Is_dir
        | Ok { Fs.ino; _ } -> (
            match Fs.read_ino fs ~ino ~off ~len with
            | Ok b -> Fs_spec.Data (Bytes.to_string b)
            | Error e -> Fs_spec.Error e))
    | Fs_spec.Write { path; off; data } -> (
        match Fs.stat fs path with
        | Error e -> Fs_spec.Error e
        | Ok { Fs.kind = Fs.Dir; _ } -> Fs_spec.Error Fs.Is_dir
        | Ok { Fs.ino; _ } -> (
            match Fs.write_ino fs ~ino ~off (Bytes.of_string data) with
            | Ok () -> Fs_spec.Done
            | Error e -> Fs_spec.Error e))
    | Fs_spec.Truncate (path, size) -> (
        match Fs.stat fs path with
        | Error e -> Fs_spec.Error e
        | Ok { Fs.kind = Fs.Dir; _ } -> Fs_spec.Error Fs.Is_dir
        | Ok { Fs.ino; _ } -> (
            match Fs.truncate_ino fs ~ino size with
            | Ok () -> Fs_spec.Done
            | Error e -> Fs_spec.Error e))
end

module R = Bi_core.Refinement.Make (Fs_spec) (Impl)

let step = Impl.step

let fresh_fs () =
  Fs.mkfs (Block_dev.of_disk (Disk.create ~sectors:2048 ()))

let trace_vc ~id ops =
  R.vc ~id ~category:"fs/refinement" ~view ~make_impl:fresh_fs
    ~init:Fs_spec.empty ops

(* ------------------------------------------------------------------ *)
(* Scripted traces                                                     *)

let scripted_vcs () =
  let open Fs_spec in
  [
    trace_vc ~id:"fs/trace/create-write-read"
      [
        Create "/a";
        Write { path = "/a"; off = 0; data = "hello world" };
        Read { path = "/a"; off = 0; len = 64 };
        Read { path = "/a"; off = 6; len = 5 };
        Stat "/a";
      ];
    trace_vc ~id:"fs/trace/dirs-nested"
      [
        Mkdir "/d";
        Mkdir "/d/e";
        Create "/d/e/f";
        Readdir "/";
        Readdir "/d";
        Readdir "/d/e";
        Stat "/d/e";
      ];
    trace_vc ~id:"fs/trace/unlink-rmdir"
      [
        Mkdir "/d";
        Create "/d/f";
        Rmdir "/d";
        (* Not_empty *)
        Unlink "/d/f";
        Rmdir "/d";
        Readdir "/";
      ];
    trace_vc ~id:"fs/trace/error-paths"
      [
        Unlink "/missing";
        Mkdir "/d";
        Mkdir "/d";
        (* Exists *)
        Create "/d";
        (* Exists *)
        Unlink "/d";
        (* Is_dir *)
        Create "/d/f";
        Rmdir "/d/f";
        (* Not_dir *)
        Readdir "/d/f";
        (* Not_dir *)
        Create "/nodir/f";
        (* Not_found *)
      ];
    trace_vc ~id:"fs/trace/sparse-write"
      [
        Create "/s";
        Write { path = "/s"; off = 3000; data = "end" };
        Read { path = "/s"; off = 0; len = 8 };
        (* zeros *)
        Read { path = "/s"; off = 2998; len = 10 };
        Stat "/s";
      ];
    trace_vc ~id:"fs/trace/overwrite"
      [
        Create "/o";
        Write { path = "/o"; off = 0; data = "aaaaaaaaaa" };
        Write { path = "/o"; off = 5; data = "BB" };
        Read { path = "/o"; off = 0; len = 10 };
      ];
    trace_vc ~id:"fs/trace/truncate"
      [
        Create "/t";
        Write { path = "/t"; off = 0; data = String.make 2000 'x' };
        Truncate ("/t", 100);
        Stat "/t";
        Truncate ("/t", 300);
        Read { path = "/t"; off = 90; len = 30 };
      ];
    trace_vc ~id:"fs/trace/large-file"
      [
        Create "/big";
        Write { path = "/big"; off = 0; data = String.make 20_000 'y' };
        (* crosses into the indirect block *)
        Read { path = "/big"; off = 19_990; len = 64 };
        Stat "/big";
        Truncate ("/big", 0);
        Stat "/big";
      ];
    trace_vc ~id:"fs/trace/reuse-after-unlink"
      [
        Create "/a";
        Write { path = "/a"; off = 0; data = "one" };
        Unlink "/a";
        Create "/a";
        Read { path = "/a"; off = 0; len = 10 };
        (* must be empty, not "one" *)
      ];
    trace_vc ~id:"fs/trace/rename"
      [
        Mkdir "/d";
        Create "/a";
        Write { path = "/a"; off = 0; data = "contents travel" };
        Rename ("/a", "/d/b");
        Read { path = "/d/b"; off = 0; len = 64 };
        Stat "/a";
        (* Not_found *)
        Readdir "/";
        Readdir "/d";
      ];
    trace_vc ~id:"fs/trace/rename-errors"
      [
        Create "/x";
        Create "/y";
        Rename ("/x", "/y");
        (* Exists *)
        Rename ("/missing", "/z");
        (* Not_found *)
        Mkdir "/dir";
        Rename ("/dir", "/dir2");
        (* Is_dir *)
        Rename ("/x", "/nodir/x");
        (* Not_found (dst parent) *)
        Readdir "/";
      ];
  ]

(* ------------------------------------------------------------------ *)
(* Random traces                                                       *)

let gen_op g (_ : Fs_spec.state) =
  let dirs = [ "/"; "/d0"; "/d1" ] in
  (* The last two go through a file whenever /f0 or /d0/f is one, so
     the spec's [Not_dir] (and, when it is absent, [Not_found]) answers
     are checked on every operation. *)
  let files = [ "/f0"; "/f1"; "/d0/f"; "/d1/f"; "/f0/x"; "/d0/f/y" ] in
  let file g = Gen.oneof g files in
  match Gen.int g 100 with
  | r when r < 15 -> Fs_spec.Create (file g)
  | r when r < 25 -> Fs_spec.Mkdir (Gen.oneof g [ "/d0"; "/d1" ])
  | r when r < 35 -> Fs_spec.Unlink (file g)
  | r when r < 40 -> Fs_spec.Rmdir (Gen.oneof g [ "/d0"; "/d1" ])
  | r when r < 60 ->
      let data = String.make (1 + Gen.int g 1500) (Char.chr (97 + Gen.int g 26)) in
      Fs_spec.Write { path = file g; off = Gen.int g 2000; data }
  | r when r < 80 ->
      Fs_spec.Read { path = file g; off = Gen.int g 2500; len = Gen.int g 600 }
  | r when r < 85 -> Fs_spec.Readdir (Gen.oneof g dirs)
  | r when r < 90 -> Fs_spec.Stat (file g)
  | r when r < 95 -> Fs_spec.Rename (file g, file g)
  | _ -> Fs_spec.Truncate (file g, Gen.int g 3000)

let random_trace_vcs () =
  List.init 8 (fun seed ->
      let id = Printf.sprintf "fs/trace/random/%02d" seed in
      Vc.make ~id ~category:"fs/refinement" (fun () ->
          match
            R.check_random ~view ~make_impl:fresh_fs ~init:Fs_spec.empty
              ~gen_op ~seed:id ~traces:2 ~steps:30
          with
          | Ok () -> Vc.Proved
          | Error f -> Vc.Falsified (Format.asprintf "%a" R.pp_failure f)))

(* ------------------------------------------------------------------ *)
(* Crash atomicity                                                     *)

let crash_config ?(tears = []) ?(seeds = []) ?(explore_recovery = false)
    ~setup ~mutate () =
  {
    Crash_explore.sectors = 128;
    setup = (fun dev -> setup (Fs.mkfs dev));
    mutate = (fun dev -> mutate (Fs.mount dev));
    view = (fun dev -> view (Fs.mount dev));
    equal = Fs_spec.equal_state;
    pp = Some Fs_spec.pp_state;
    tears;
    crash_seeds = seeds;
    explore_recovery;
  }

(* Setups and mutations must do what they say: an operation that fails
   would leave pre = post and prove nothing. *)
let ok = function
  | Ok x -> x
  | Error e -> failwith (Format.asprintf "%a" Fs.pp_error e)

let write fs path data =
  ok (Fs.write_ino fs ~ino:(ok (Fs.resolve fs path)) ~off:0 data)

(* Every prefix of the mutation's write stream, a 100-byte tear of each
   write and two seeded subsets per boundary recover to the pre-state or
   the post-state, with exactly the pinned census. *)
let crash_vc ~id ?(explore_recovery = false) ~census ~setup ~mutate () =
  Vc.make ~id ~category:"fs/crash" (fun () ->
      Crash_explore.must_census census
        (Crash_explore.explore
           (crash_config ~tears:[ 100 ] ~seeds:[ 1; 2 ] ~explore_recovery ~setup
              ~mutate ())))

let census ~writes ~flushes ~crash ~torn ~subset ~recovery =
  {
    Crash_explore.writes;
    flushes;
    crash_points = crash;
    torn_points = torn;
    subset_points = subset;
    recovery_points = recovery;
  }

let crash_vcs () =
  let one_txn = census ~flushes:4 ~recovery:0 in
  [
    crash_vc ~id:"fs/crash/create"
      ~census:(one_txn ~writes:14 ~crash:19 ~torn:14 ~subset:38)
      ~setup:ignore
      ~mutate:(fun fs -> ok (Fs.create fs "/a"))
      ();
    crash_vc ~id:"fs/crash/unlink"
      ~census:(one_txn ~writes:14 ~crash:19 ~torn:14 ~subset:38)
      ~setup:(fun fs ->
        ok (Fs.create fs "/a");
        write fs "/a" (Bytes.make 600 'z'))
      ~mutate:(fun fs -> ok (Fs.unlink fs "/a"))
      ();
    crash_vc ~id:"fs/crash/mkdir"
      ~census:(one_txn ~writes:14 ~crash:19 ~torn:14 ~subset:38)
      ~setup:ignore
      ~mutate:(fun fs -> ok (Fs.mkdir fs "/d"))
      ();
    crash_vc ~id:"fs/crash/small-write"
      ~census:(one_txn ~writes:11 ~crash:16 ~torn:11 ~subset:32)
      ~setup:(fun fs -> ok (Fs.create fs "/w"))
      ~mutate:(fun fs -> write fs "/w" (Bytes.of_string "data"))
      ();
    crash_vc ~id:"fs/crash/rename"
      ~census:(one_txn ~writes:8 ~crash:13 ~torn:8 ~subset:26)
      ~setup:(fun fs ->
        ok (Fs.create fs "/old");
        write fs "/old" (Bytes.of_string "payload"))
      ~mutate:(fun fs -> ok (Fs.rename fs ~src:"/old" ~dst:"/new"))
      ();
    crash_vc ~id:"fs/crash/truncate"
      ~census:(one_txn ~writes:11 ~crash:16 ~torn:11 ~subset:32)
      ~setup:(fun fs ->
        ok (Fs.create fs "/t");
        write fs "/t" (Bytes.make 1500 'q'))
      ~mutate:(fun fs -> ok (Fs.truncate_ino fs ~ino:(ok (Fs.resolve fs "/t")) 100))
      ();
    (* Recovery crashed at each of its own write boundaries, and
       recovered again, still lands on pre or post. *)
    crash_vc ~id:"fs/recovery/idempotent" ~explore_recovery:true
      ~census:
        (census ~writes:14 ~flushes:4 ~crash:19 ~torn:14 ~subset:38
           ~recovery:204)
      ~setup:(fun fs ->
        ok (Fs.create fs "/a");
        write fs "/a" (Bytes.make 600 'z'))
      ~mutate:(fun fs -> ok (Fs.unlink fs "/a"))
      ();
  ]

let space_vcs () =
  [
    Vc.prop ~id:"fs/space/blocks-reclaimed" ~category:"fs/space" (fun () ->
        let fs = fresh_fs () in
        (* Prime the root directory's entry block, which is retained across
           unlink, so the before/after comparison isolates file blocks. *)
        (match Fs.create fs "/prime" with Ok () -> () | Error _ -> ());
        (match Fs.unlink fs "/prime" with Ok () -> () | Error _ -> ());
        let before = Fs.free_data_blocks fs in
        (match Fs.create fs "/big" with Ok () -> () | Error _ -> ());
        (match Fs.resolve fs "/big" with
        | Ok ino ->
            ignore (Fs.write_ino fs ~ino ~off:0 (Bytes.make 30_000 'b'))
        | Error _ -> ());
        let during = Fs.free_data_blocks fs in
        (match Fs.unlink fs "/big" with Ok () -> () | Error _ -> ());
        let after = Fs.free_data_blocks fs in
        during < before && after = before);
    Vc.prop ~id:"fs/space/no-space-surfaces" ~category:"fs/space" (fun () ->
        (* A deliberately tiny device runs out of data blocks. *)
        let fs =
          Fs.mkfs (Block_dev.of_disk (Disk.create ~sectors:96 ()))
        in
        (match Fs.create fs "/f" with Ok () -> () | Error _ -> ());
        match Fs.resolve fs "/f" with
        | Error _ -> false
        | Ok ino -> (
            match Fs.write_ino fs ~ino ~off:0 (Bytes.make 40_000 'x') with
            | Error Fs.No_space -> true
            | Ok () | Error _ -> false));
  ]

let vcs () = scripted_vcs () @ random_trace_vcs () @ crash_vcs () @ space_vcs ()
