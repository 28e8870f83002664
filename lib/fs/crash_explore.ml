module Disk = Bi_hw.Device.Disk

type op = W of int * bytes | F

let pp_op ppf = function
  | W (s, _) -> Format.fprintf ppf "w%d" s
  | F -> Format.pp_print_string ppf "f"

(* Journaling wrapper: pass everything through to [dev], recording the
   write/flush stream so a cursor can walk it op by op. *)
let record dev =
  let ops = ref [] in
  let journal =
    Block_dev.make ~blocks:(Block_dev.blocks dev)
      ~read:(fun i -> Block_dev.read dev i)
      ~write:(fun i b ->
        ops := W (i, Bytes.copy b) :: !ops;
        Block_dev.write dev i b)
      ~flush:(fun () ->
        ops := F :: !ops;
        Block_dev.flush dev)
      ~crash:(fun seed -> Block_dev.crash ?seed dev)
      ~crash_with:(fun ~keep_unflushed ->
        Block_dev.crash_with dev ~keep_unflushed)
      ~io_count:(fun () -> Block_dev.io_count dev)
  in
  (journal, fun () -> List.rev !ops)

type 'v config = {
  sectors : int;
  setup : Block_dev.t -> unit;
  mutate : Block_dev.t -> unit;
  view : Block_dev.t -> 'v;
  equal : 'v -> 'v -> bool;
  pp : (Format.formatter -> 'v -> unit) option;
  tears : int list;
  crash_seeds : int list;
  explore_recovery : bool;
}

type stats = {
  crash_points : int;
  torn_points : int;
  subset_points : int;
  recovery_points : int;
  writes : int;
  flushes : int;
}

(* The explorer's own devices are bare disks, wrapped as block devices
   only for [setup], [mutate] and [view]. *)
let apply disk = function
  | W (s, b) -> Disk.write_sector disk s b
  | F -> Disk.flush disk

(* Crash keeping every pending write: combined with cutting the op stream
   at each index this enumerates every prefix of the write stream. *)
let crash_all disk = Disk.crash_with disk ~keep_unflushed:max_int

(* [sweep start ops f] walks one cursor forward from a copy of [start]
   through [ops], calling [f i cursor] at every boundary [i] (after the
   first [i] ops).  [f] must leave the cursor untouched: it takes its crash
   states as copies. *)
let sweep start ops f =
  let cursor = crash_all start in
  f 0 cursor;
  List.iteri
    (fun i op ->
      apply cursor op;
      f (i + 1) cursor)
    ops

(* Crashed-device sectors and their hash, keying the verdict cache.
   Crash copies share sector buffers, so equality is mostly pointer
   comparisons. *)
type key = { contents : bytes array; hash : int }

module States = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.hash = b.hash
    && Array.for_all2
         (fun x y -> x == y || Bytes.equal x y)
         a.contents b.contents

  let hash k = k.hash
end)

(* One word in every 64 bytes of a sector. *)
let sector_hash s =
  let rec go h off =
    if off >= Bytes.length s then h
    else go ((h * 31) + Int64.to_int (Bytes.get_int64_ne s off)) (off + 64)
  in
  go 0 0

(* [keyer sectors] keys a crashed device by its own sector array, not a
   copy.  It remembers the last buffer seen at each sector index and its
   hash: buffers are never mutated, so a physically equal buffer has the
   same hash, and consecutive crash points differ in a few sectors.  Most
   keys then hash no sector. *)
let keyer sectors =
  let last = Array.make sectors Bytes.empty and last_hash = Array.make sectors 0 in
  fun contents ->
    let h = ref 0 in
    for i = 0 to Array.length contents - 1 do
      let s = contents.(i) in
      if s != last.(i) then begin
        last.(i) <- s;
        last_hash.(i) <- sector_hash s
      end;
      h := (!h * 31) + last_hash.(i)
    done;
    { contents; hash = !h }

exception Failed of string

let explore cfg =
  (* Setup runs once; every state below starts from a copy of its image. *)
  let base = Disk.create ~sectors:cfg.sectors () in
  cfg.setup (Block_dev.of_disk base);
  Disk.flush base;
  (* Journal the transaction's write stream once. *)
  let mutated = crash_all base in
  let journal, get_ops = record (Block_dev.of_disk mutated) in
  cfg.mutate journal;
  let ops = get_ops () in
  let nops = List.length ops in
  let writes =
    List.length (List.filter (function W _ -> true | F -> false) ops)
  in
  let flushes = nops - writes in
  let view disk = cfg.view (Block_dev.of_disk disk) in
  (* Reference states: [pre] before the transaction, [post] after it ran to
     completion (both observed through recovery). *)
  let pre = view (crash_all base) in
  let post = view (crash_all mutated) in
  let pp_v ppf v =
    match cfg.pp with Some pp -> pp ppf v | None -> Format.fprintf ppf "<state>"
  in
  (* Check one crashed device: atomicity (old state or new state) and
     recovery idempotence (viewing again after recovery is a no-op).  The
     verdict is a function of the device contents, so a state already
     checked is only counted.  [where] names the crash point; most points
     are cache hits, so it is formatted only for a failure. *)
  let seen = States.create 256 in
  let key = keyer cfg.sectors in
  let check where crashed =
    let k = key (Disk.durable crashed) in
    if not (States.mem seen k) then begin
      (* A new state: [view] recovers the device in place, so the cache
         keeps a copy of the array as it was. *)
      States.add seen { k with contents = Array.copy k.contents } ();
      let v = view crashed in
      if not (cfg.equal v pre || cfg.equal v post) then
        raise
          (Failed
             (Format.asprintf "%s: state %a is neither pre %a nor post %a"
                (where ()) pp_v v pp_v pre pp_v post));
      let v2 = view crashed in
      if not (cfg.equal v v2) then
        raise
          (Failed
             (Format.asprintf "%s: recovery not idempotent (%a then %a)"
                (where ()) pp_v v pp_v v2))
    end
  in
  let crash_points = ref 0
  and torn_points = ref 0
  and subset_points = ref 0
  and recovery_points = ref 0 in
  let point counter where crashed =
    check where crashed;
    incr counter
  in
  match
    (* 1. Every write boundary, all pending writes surviving, and 2. seeded
       subsets of the pending writes at that boundary. *)
    sweep base ops (fun i disk ->
        point crash_points
          (fun () -> Printf.sprintf "prefix %d/%d" i nops)
          (crash_all disk);
        List.iter
          (fun seed ->
            point subset_points
              (fun () ->
                Printf.sprintf "prefix %d/%d subset seed %d" i nops seed)
              (Disk.crash ~seed disk))
          cfg.crash_seeds);
    (* 3. Torn writes: the last write of a prefix lands partially — its
       first [tear] bytes are new, the rest is the block's prior content. *)
    let cursor = crash_all base in
    List.iteri
      (fun idx op ->
        (match op with
        | F -> ()
        | W (s, b) ->
            List.iter
              (fun tear ->
                if tear > 0 && tear < Block_dev.block_size then begin
                  let disk = crash_all cursor in
                  let torn = Disk.read_sector disk s in
                  Bytes.blit b 0 torn 0 tear;
                  Disk.write_sector disk s torn;
                  point torn_points
                    (fun () ->
                      Printf.sprintf "torn write %d (op %d, %d bytes)" s idx
                        tear)
                    (crash_all disk)
                end)
              cfg.tears);
        apply cursor op)
      ops;
    (* 4. Crash during recovery: journal what recovery itself writes from
       each boundary's crash state, then crash recovery at each of its own
       write boundaries (plus seeded subsets) and recover again. *)
    if cfg.explore_recovery then
      sweep base ops (fun i disk ->
          let rec_journal, rec_ops = record (Block_dev.of_disk (crash_all disk)) in
          ignore (cfg.view rec_journal);
          let rops = rec_ops () in
          let nrops = List.length rops in
          sweep disk rops (fun j rdisk ->
              point recovery_points
                (fun () ->
                  Printf.sprintf "recovery prefix %d/%d after crash %d" j
                    nrops i)
                (crash_all rdisk);
              List.iter
                (fun seed ->
                  point recovery_points
                    (fun () ->
                      Printf.sprintf
                        "recovery prefix %d/%d after crash %d, seed %d" j nrops
                        i seed)
                    (Disk.crash ~seed rdisk))
                cfg.crash_seeds))
  with
  | exception Failed msg -> Error msg
  | () ->
      Ok
        {
          crash_points = !crash_points;
          torn_points = !torn_points;
          subset_points = !subset_points;
          recovery_points = !recovery_points;
          writes;
          flushes;
        }

let must_census (pinned : stats) = function
  | Ok s when s = pinned -> Bi_core.Vc.Proved
  | Ok s ->
      Bi_core.Vc.Falsified
        (Printf.sprintf
           "census drifted: %d writes, %d flushes, %d crash, %d torn, %d \
            subset, %d recovery points"
           s.writes s.flushes s.crash_points s.torn_points s.subset_points
           s.recovery_points)
  | Error e -> Bi_core.Vc.Falsified e
