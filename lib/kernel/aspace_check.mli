(** The kernel half of the [pwc] suite: the running kernel's address
    spaces translate through their own TLB and paging-structure cache
    ({!Address_space}), and these VCs check the invalidation contract
    that makes that safe.

    - [pwc/kernel/agree/00..07]: random mmap/munmap/mprotect/load/store
      programs over two address spaces on one small machine, where freed
      frames are soon recycled.  Every access made through a space's
      caches must agree with {!Bi_hw.Mmu.walk} on the space's [cr3]: a
      load returns the walked word or [E_fault], a store lands at the
      walked address or is [E_fault] on an unmapped or read-only page.
      Destroying both spaces must return every frame.
    - [pwc/kernel/unmap-then-reuse-faults]: a page cached in one space,
      unmapped, and its frame mapped by another space that stores a
      marker: the first space's load and store of the old address are
      [E_fault].
    - [pwc/kernel/protect-faults-every-page]: all three cached pages of a
      region made read-only refuse stores.
    - [pwc/kernel/mutant/munmap-without-invlpg] and
      [.../protect-without-invlpg]: {!Address_space.Make} over an
      invalidation that skips the step; every agree program must falsify
      the mutant.

    [bin/verify]'s [pwc] suite is [Pt_refinement.pwc_vcs () @ vcs ()];
    the benchmark's verify workload pins [Pt_refinement.pwc_vcs] alone. *)

val vcs : unit -> Bi_core.Vc.t list
