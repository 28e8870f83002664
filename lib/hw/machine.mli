(** Machine composition: physical memory, frame allocator and the device
    complement.

    This is the "hardware execution" of the paper's refinement theorem
    (Section 4.4): the kernel and the verified page table run against a
    [Machine.t], and the high-level spec must be refined by what happens
    here.  The machine has no per-core state: each process translates
    through its own address space's TLB and paging-structure cache
    ([Bi_kernel.Address_space], one cache pair per PCID), which
    invalidates itself, and the multi-core shootdown cost of Figure 1c is
    {!Cost_model.shootdown_cost}, which the simulator charges directly.
    Nor has it an interrupt controller: no device raises interrupts, and
    the kernel polls the NIC and reads the timer on every idle tick. *)

type t = {
  mem : Phys_mem.t;
  frames : Frame_alloc.t;
  timer : Device.Timer.t;
  serial : Device.Serial.t;
  disk : Device.Disk.t;
  nic : Device.Nic.t;
}

val create : mem_bytes:int -> disk_sectors:int -> t
(** Build a machine with [mem_bytes] of memory (the first 64 frames
    reserved for the firmware and kernel image, the rest managed by the
    frame allocator) and a [disk_sectors]-sector disk. *)
