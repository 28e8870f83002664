module Timer = struct
  type t = { mutable ticks : int64 }

  let create () = { ticks = 0L }
  let tick t = t.ticks <- Int64.add t.ticks 1L
  let now t = t.ticks
end

module Serial = struct
  let capacity = 16384

  (* [ring] grows by doubling up to [capacity] bytes and is then used
     circularly: byte [i] of everything written (counting from the last
     [clear]) sits at [i mod capacity]. *)
  type t = { mutable ring : Bytes.t; mutable written : int }

  let create () = { ring = Bytes.create 256; written = 0 }

  let write_char t c =
    let n = Bytes.length t.ring in
    if t.written = n && n < capacity then begin
      let r = Bytes.create (min capacity (2 * n)) in
      Bytes.blit t.ring 0 r 0 n;
      t.ring <- r
    end;
    Bytes.unsafe_set t.ring (t.written mod Bytes.length t.ring) c;
    t.written <- t.written + 1

  let write_string t s = String.iter (write_char t) s

  let output t =
    let n = Bytes.length t.ring in
    if t.written <= n then Bytes.sub_string t.ring 0 t.written
    else
      let head = t.written mod n in
      Bytes.sub_string t.ring head (n - head) ^ Bytes.sub_string t.ring 0 head

  let clear t = t.written <- 0
end

module Disk = struct
  let sector_size = 512

  type write_record = { sector : int; data : bytes }

  type t = {
    durable : bytes array; (* state as of the last flush *)
    mutable unflushed : write_record list; (* newest first *)
    mutable io_count : int;
  }

  let create ~sectors () =
    if sectors <= 0 then invalid_arg "Disk.create: sectors <= 0";
    {
      durable = Array.init sectors (fun _ -> Bytes.make sector_size '\000');
      unflushed = [];
      io_count = 0;
    }

  let sectors t = Array.length t.durable

  let check t s =
    if s < 0 || s >= sectors t then invalid_arg "Disk: sector out of range"

  let read_sector t s =
    check t s;
    t.io_count <- t.io_count + 1;
    (* Reads observe the newest un-flushed write to the sector, if any. *)
    let rec newest = function
      | [] -> Bytes.copy t.durable.(s)
      | { sector; data } :: _ when sector = s -> Bytes.copy data
      | _ :: rest -> newest rest
    in
    newest t.unflushed

  let write_sector t s data =
    check t s;
    if Bytes.length data <> sector_size then
      invalid_arg "Disk.write_sector: buffer must be one sector";
    t.io_count <- t.io_count + 1;
    t.unflushed <- { sector = s; data = Bytes.copy data } :: t.unflushed

  let flush t =
    t.io_count <- t.io_count + 1;
    (* Apply oldest-first so later writes win. *)
    List.iter
      (fun { sector; data } -> t.durable.(sector) <- data)
      (List.rev t.unflushed);
    t.unflushed <- []

  (* A stored sector buffer is never mutated in place: [write_sector]
     copies data in, [read_sector] copies it out, and [flush]/[crash] only
     replace array slots.  So a crash copy can share every buffer. *)
  let copy_durable t =
    { durable = Array.copy t.durable; unflushed = []; io_count = 0 }

  let crash_with t ~keep_unflushed =
    (* [keep_unflushed] is clamped to [0, pending]: negative keeps nothing,
       larger-than-pending keeps every un-flushed write. *)
    let d = copy_durable t in
    let oldest_first = List.rev t.unflushed in
    let kept = List.filteri (fun i _ -> i < keep_unflushed) oldest_first in
    List.iter (fun { sector; data } -> d.durable.(sector) <- data) kept;
    d

  let crash ?seed t =
    (* Deterministic partial crash: keep each un-flushed write iff a seeded
       coin derived from its position says so.  Without [seed] the stream is
       the historical fixed one; with it, fault plans can sweep distinct
       crash subsets while staying replayable. *)
    let g =
      match seed with
      | None -> Bi_core.Gen.of_string "disk/crash"
      | Some s -> Bi_core.Gen.of_string (Printf.sprintf "disk/crash/%d" s)
    in
    let d = copy_durable t in
    let oldest_first = List.rev t.unflushed in
    List.iter
      (fun { sector; data } ->
        if Bi_core.Gen.bool g then d.durable.(sector) <- data)
      oldest_first;
    d

  (* With nothing unflushed the durable array is the contents; its
     buffers are never mutated in place, so the strings can share them. *)
  let contents t =
    let sectors =
      match t.unflushed with
      | [] -> t.durable
      | _ -> (crash_with t ~keep_unflushed:max_int).durable
    in
    Array.map Bytes.unsafe_to_string sectors

  let durable t = t.durable

  let io_count t = t.io_count
end

module Nic = struct
  let mtu = 1514

  type t = {
    mac : string;
    mutable peer : t option;
    wire : bytes Queue.t; (* frames in flight from this NIC *)
    rx : bytes Queue.t;
    mutable drop_next : bool;
  }

  let create ~mac () =
    if String.length mac <> 6 then invalid_arg "Nic.create: mac must be 6 bytes";
    {
      mac;
      peer = None;
      wire = Queue.create ();
      rx = Queue.create ();
      drop_next = false;
    }

  let mac t = t.mac

  let connect a b =
    a.peer <- Some b;
    b.peer <- Some a

  let transmit t frame =
    if Bytes.length frame > mtu then invalid_arg "Nic.transmit: frame > MTU";
    if t.drop_next then t.drop_next <- false
    else Queue.push (Bytes.copy frame) t.wire

  let deliver t =
    match t.peer with
    | None ->
        Queue.clear t.wire;
        0
    | Some peer ->
        let n = Queue.length t.wire in
        Queue.iter (fun f -> Queue.push f peer.rx) t.wire;
        Queue.clear t.wire;
        n

  let drop_next_tx t = t.drop_next <- true

  (* Tap points for fault-injecting links: pull a transmitted frame off the
     wire before delivery, or push a frame straight into the RX ring,
     bypassing {!deliver}. *)
  let take_tx t = Queue.take_opt t.wire

  let inject_rx t frame = Queue.push (Bytes.copy frame) t.rx

  let receive t = Queue.take_opt t.rx
  let rx_pending t = Queue.length t.rx
end
