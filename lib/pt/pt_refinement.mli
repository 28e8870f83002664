(** The page-table verification-condition suite.

    The paper reports "all 220 verification conditions" for its page-table
    proof (Figure 1a).  This module generates exactly 220 VCs, organised in
    the same layers as the paper's Figure 2:

    - bit-level lemmas about the PTE codec and address arithmetic (the
      "multi-level tree structure encoded as bits" part of the proof);
    - per-operation refinement obligations — one VC per (operation,
      page-size, permission, scenario) instance, checked through
      {!Bi_core.Refinement} against {!Pt_spec};
    - hardware-coupling obligations: agreement with the {!Bi_hw.Mmu}
      walker, TLB semantics (including staleness after unmap without
      [invlpg]), and read/write memory semantics through translation;
    - structural invariants (well-formedness, table-frame reclamation);
    - randomized whole-trace refinement;
    - ghost/contract obligations for {!Pt_verified}.

    Discharging them with {!Bi_core.Verifier.discharge} produces the
    Figure 1a CDF. *)

val count : int
(** 220, matching the paper. *)

(** {1 Refinement harness}

    Shared with {!Pt_extensions}. *)

val fresh_pt : ?bytes:int -> unit -> Page_table.t
(** A page table over [bytes] of memory (default 2 MiB) whose first 64
    frames are kept out of the allocator for data probes. *)

val va_at :
  ?l4:int -> ?l3:int -> ?l2:int -> ?l1:int -> ?offset:int64 -> unit ->
  Bi_hw.Addr.vaddr
(** The virtual address with these table indices (default 0). *)

(** {!Page_table} as a step function over {!Pt_spec} operations. *)
module Impl :
  Bi_core.Refinement.IMPL
    with type t = Page_table.t
     and type op = Pt_spec.op
     and type ret = Pt_spec.ret

module R : module type of Bi_core.Refinement.Make (Pt_spec) (Impl)

val trace_vc : id:string -> category:string -> Pt_spec.op list -> Bi_core.Vc.t
(** The trace refines {!Pt_spec} from the empty state, on a
    {!fresh_pt}. *)

val all : unit -> Bi_core.Vc.t list
(** Generate the full suite.  [List.length (all ()) = count]. *)

val families : unit -> (string * int) list
(** VC count per category, in suite order. *)

val range_vcs : unit -> Bi_core.Vc.t list
(** Extension suite (outside the paper's 220; the "ptb" verify suite):
    the batched {!Page_table.map_range}/[unmap_range]/[protect_range]
    refine the {!Pt_spec} per-page folds — same results (including the
    index of a mid-range failure), same final view, all-or-nothing per
    page — plus table-reclamation obligations and the >= 3x
    access-count bound for a 512-page batch vs. 512 single maps. *)

val pwc_vcs : unit -> Bi_core.Vc.t list
(** Extension suite (the "pwc" verify suite): paging-structure-cache
    unit obligations (resume depth, positive-only fill, staleness and
    the invlpg contract, eviction bounds) and randomized
    map/unmap/invlpg histories under which PWC-enabled
    {!Bi_hw.Mmu.translate} must agree with the uncached walk. *)
