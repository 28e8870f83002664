(** Machine composition: physical memory, frame allocator, cores with
    private TLBs, and the device complement.

    This is the "hardware execution" of the paper's refinement theorem
    (Section 4.4): the kernel and the verified page table run against a
    [Machine.t], and the high-level spec must be refined by what happens
    here. *)

(** A core's [tlb] and [pwc] model the per-core caches a multi-core
    shootdown must reach; {!tlb_shootdown} charges its cost
    ({!Cost_model.shootdown_cost}, the one the Figure 1c sweep adds to
    every unmap).  No kernel translation reads
    them: each process translates through its own address space's pair
    ([Bi_kernel.Address_space], one cache pair per PCID), which
    invalidates itself. *)
type core = {
  id : int;
  tlb : Tlb.t;
  pwc : Pwc.t;  (** Paging-structure cache, invalidated with the TLB. *)
  mutable cr3 : Addr.paddr;  (** Current address-space root. *)
  mutable cycles : int;  (** Per-core virtual cycle counter. *)
}

type t = {
  mem : Phys_mem.t;
  frames : Frame_alloc.t;
  cores : core array;
  intr : Device.Intr.t;
  timer : Device.Timer.t;
  serial : Device.Serial.t;
  disk : Device.Disk.t;
  nic : Device.Nic.t;
  cost : Cost_model.t;
}

val timer_vector : int
val disk_vector : int
val nic_vector : int

val create :
  ?mem_bytes:int ->
  ?disk_sectors:int ->
  ?tlb_entries:int ->
  ?pwc_entries:int ->
  cores:int ->
  unit ->
  t
(** Build a machine.  Defaults: 32 MiB memory (first 64 frames reserved for
    firmware/kernel image, the rest managed by the frame allocator),
    2048-sector disk, 64-entry TLBs, 16-entry paging-structure caches. *)

val core : t -> int -> core
(** Core by id; raises [Invalid_argument] when out of range. *)

val charge : core -> int -> unit
(** Add cycles to a core's virtual clock. *)

val tlb_shootdown : t -> Addr.vaddr -> initiator:int -> unit
(** Invalidate the page's translation — TLB entry and paging-structure
    cache entries — on every core and charge the initiator the shootdown
    cost from the cost model. *)

val elapsed_us : t -> int -> float
(** A core's virtual clock in microseconds. *)
