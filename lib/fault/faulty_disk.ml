module Block_dev = Bi_fs.Block_dev
module Disk = Bi_hw.Device.Disk
module Gen = Bi_core.Gen

type wrec = { seq : int; sector : int; data : bytes }

type t = {
  sectors : int;
  durable : bytes array;
  mutable pending : wrec list; (* oldest first; applied in order at flush *)
  mutable stalled : (int * wrec) list; (* (writes until release, record) *)
  plan : Fault_plan.t;
  mutable next_seq : int;
  mutable ios : int;
  mutable injected : int;
}

let create ?(plan = Fault_plan.script []) ~sectors () =
  if sectors <= 0 then invalid_arg "Faulty_disk.create: sectors <= 0";
  {
    sectors;
    durable =
      Array.init sectors (fun _ -> Bytes.make Block_dev.block_size '\000');
    pending = [];
    stalled = [];
    plan;
    next_seq = 0;
    ios = 0;
    injected = 0;
  }

let check t s =
  if s < 0 || s >= t.sectors then
    invalid_arg "Faulty_disk: sector out of range"

let fresh_rec t sector data =
  let r = { seq = t.next_seq; sector; data = Bytes.copy data } in
  t.next_seq <- t.next_seq + 1;
  r

(* Every issued write ages the stalled queue by one; records whose countdown
   expires re-enter the pending stream at the current position. *)
let age_stalled t =
  let released, still =
    List.partition (fun (n, _) -> n <= 1) t.stalled
  in
  t.stalled <- List.map (fun (n, r) -> (n - 1, r)) still;
  List.iter (fun (_, r) -> t.pending <- t.pending @ [ r ]) released

let corrupt_copy data pos bits =
  let b = Bytes.copy data in
  if Bytes.length b > 0 then begin
    let pos = pos mod Bytes.length b in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (bits land 0xff)))
  end;
  b

let write t s data =
  check t s;
  t.ios <- t.ios + 1;
  age_stalled t;
  let r = fresh_rec t s data in
  (match Fault_plan.next ~len:(Bytes.length data) t.plan with
  | Pass -> t.pending <- t.pending @ [ r ]
  | Drop -> t.injected <- t.injected + 1
  | Duplicate ->
      t.injected <- t.injected + 1;
      t.pending <- t.pending @ [ r; { r with data = Bytes.copy r.data } ]
  | Reorder -> (
      t.injected <- t.injected + 1;
      (* Swap with the previous in-flight write: the new record becomes
         durable-ordered before it, so at flush the older data wins. *)
      match List.rev t.pending with
      | [] -> t.pending <- [ r ]
      | prev :: before_rev ->
          t.pending <- List.rev before_rev @ [ r; prev ])
  | Corrupt { pos; bits } ->
      t.injected <- t.injected + 1;
      t.pending <- t.pending @ [ { r with data = corrupt_copy r.data pos bits } ]
  | Stall n ->
      t.injected <- t.injected + 1;
      t.stalled <- t.stalled @ [ (n, r) ]);
  ()

(* Reads serve program order (read-own-writes): the newest record for the
   sector among everything in flight — pending or stalled — else durable.
   The plan can still bit-rot the *returned copy* (transient read
   corruption); other decisions do not apply to reads. *)
let read t s =
  check t s;
  t.ios <- t.ios + 1;
  let in_flight =
    t.pending @ List.map snd t.stalled
  in
  let newest =
    List.fold_left
      (fun acc r ->
        if r.sector <> s then acc
        else
          match acc with
          | Some best when best.seq > r.seq -> acc
          | _ -> Some r)
      None in_flight
  in
  let data =
    match newest with
    | Some r -> Bytes.copy r.data
    | None -> Bytes.copy t.durable.(s)
  in
  match Fault_plan.next ~len:(Bytes.length data) t.plan with
  | Corrupt { pos; bits } ->
      t.injected <- t.injected + 1;
      corrupt_copy data pos bits
  | _ -> data

let flush t =
  t.ios <- t.ios + 1;
  (* List order IS durability order: a [Reorder]ed queue applies in its
     reordered order, so the older data can win a same-sector race.  The
     barrier also forces stalled writes down, after the pending stream. *)
  List.iter
    (fun r -> t.durable.(r.sector) <- Bytes.copy r.data)
    (t.pending @ List.map snd t.stalled);
  t.pending <- [];
  t.stalled <- []

let pending_count t = List.length t.pending
let stalled_count t = List.length t.stalled
let injected t = t.injected
let io_count t = t.ios

(* Crash: durable image plus a surviving subset of pending writes; stalled
   writes are still in the device queue and are always lost.  The crashed
   device is an ordinary fault-free [Block_dev]. *)
let to_plain_dev t survivors =
  let disk = Disk.create ~sectors:t.sectors () in
  let dev = Block_dev.of_disk disk in
  Array.iteri
    (fun i b ->
      if Bytes.exists (fun c -> c <> '\000') b then Block_dev.write dev i b)
    t.durable;
  List.iter (fun r -> Block_dev.write dev r.sector r.data) survivors;
  Block_dev.flush dev;
  dev

let crash ?seed t =
  let g =
    match seed with
    | None -> Gen.of_string "faulty_disk/crash"
    | Some s -> Gen.of_string (Printf.sprintf "faulty_disk/crash/%d" s)
  in
  to_plain_dev t (List.filter (fun _ -> Gen.bool g) t.pending)

let crash_with t ~keep_unflushed =
  to_plain_dev t
    (List.filteri (fun i _ -> i < keep_unflushed) t.pending)

let to_block_dev t =
  Block_dev.make ~blocks:t.sectors ~read:(read t) ~write:(write t)
    ~flush:(fun () -> flush t)
    ~crash:(fun seed -> crash ?seed t)
    ~crash_with:(fun ~keep_unflushed -> crash_with t ~keep_unflushed)
    ~io_count:(fun () -> io_count t)
