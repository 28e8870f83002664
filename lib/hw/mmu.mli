(** The MMU hardware specification.

    This is the paper's "hardware spec" (box 1 in its Figure 2): a
    description of how the MMU translates memory addresses by interpreting
    the page-table bits in physical memory — walking the four levels — or by
    using cached TLB translations.  The page-table implementation is proven
    (by VC) to refine the high-level spec {e under this interpretation
    function}, so the walker below is the semantics the whole page-table
    proof is stated against. *)

type access = Read | Write | Execute

type fault =
  | Not_present of { level : int }
      (** Translation stopped at a non-present entry. *)
  | Protection of { level : int; access : access }
      (** Permission denied for the access.  {!translate} checks the
          access against the {e effective} permission after translation
          completes — whether the translation was served from the TLB or
          by a walk — so the fault is not attributable to any particular
          level and [level] is always [0] there. *)
  | Non_canonical
      (** The virtual address is not canonical. *)

type translation = {
  pa : Addr.paddr;  (** Translated physical address. *)
  perm : Pte.perm;  (** Effective permissions along the walk. *)
  page_size : int64;  (** 4 KiB, 2 MiB or 1 GiB. *)
  levels_walked : int;  (** Memory accesses performed (0 on a TLB hit). *)
}

val pp_fault : Format.formatter -> fault -> unit
val equal_fault : fault -> fault -> bool

val walk :
  Phys_mem.t -> cr3:Addr.paddr -> Addr.vaddr -> (translation, fault) result
(** Pure page walk: interpret the in-memory page table rooted at [cr3] for
    a virtual address, ignoring the TLB.  Permission checking against a
    particular access is done by {!translate}. *)

val translate :
  ?tlb:Tlb.t ->
  ?pwc:Pwc.t ->
  Phys_mem.t ->
  cr3:Addr.paddr ->
  access ->
  Addr.vaddr ->
  (translation, fault) result
(** Full translation: consult the TLB first when given (4 KiB-granularity
    caching, inserting on miss), then check [access] against the effective
    permissions.  On a TLB miss, if a paging-structure cache is given the
    walk resumes at the deepest table it has cached for [va]'s prefix
    (filling it with the table pointers discovered on the way down), so
    [levels_walked] reports only the entry reads actually performed.
    Note a stale TLB or PWC entry is served without (re)validation — the
    behaviour unmap must neutralise with [invlpg] on both caches. *)

val load :
  ?tlb:Tlb.t ->
  ?pwc:Pwc.t ->
  Phys_mem.t ->
  cr3:Addr.paddr ->
  Addr.vaddr ->
  (int64, fault) result
(** {!translate} for [Read], then load the u64 at the physical address
    (which must be 8-byte aligned).  [tlb] and [pwc] are as for
    {!translate}: without them every load walks all four levels. *)

val store :
  ?tlb:Tlb.t ->
  ?pwc:Pwc.t ->
  Phys_mem.t ->
  cr3:Addr.paddr ->
  Addr.vaddr ->
  int64 ->
  (unit, fault) result
(** {!translate} for [Write], then store. *)
