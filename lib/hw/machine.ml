type t = {
  mem : Phys_mem.t;
  frames : Frame_alloc.t;
  timer : Device.Timer.t;
  serial : Device.Serial.t;
  disk : Device.Disk.t;
  nic : Device.Nic.t;
}

let reserved_frames = 64

let create ~mem_bytes ~disk_sectors =
  let mem = Phys_mem.create ~size:mem_bytes in
  let page = Int64.to_int Addr.page_size in
  let total_frames = mem_bytes / page in
  let frames =
    Frame_alloc.create ~mem
      ~base:(Int64.of_int (reserved_frames * page))
      ~frames:(total_frames - reserved_frames)
  in
  {
    mem;
    frames;
    timer = Device.Timer.create ();
    serial = Device.Serial.create ();
    disk = Device.Disk.create ~sectors:disk_sectors ();
    nic = Device.Nic.create ~mac:"\x52\x54\x00\x12\x34\x56" ();
  }
