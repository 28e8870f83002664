(** The hot-path ([hp]) verify suite.

    The erased-mode hot path of this reproduction is three optimizations:
    {!Bi_nr.Nr}'s flat-combining batch apply, {!Bi_net.Pkt.Iov} vectored
    zero-copy framing through the protocol stack, and the
    {!Bi_ulib.Ualloc.Pool} request-buffer fast path in
    {!Node_core.handle_frame}.  Each one is proved {e equivalent} to its
    slow reference (batched ≡ sequential replay, iovec ≡ copying frames
    bit-for-bit, pooled ≡ unpooled responses), proved {e Checked≡Erased}
    (contract erasure changes no observable byte), and armed with a
    seeded mutant (a structure whose batch replays the window reversed,
    checksum slice skip, unguarded double free) that a VC here must
    catch — the checker is itself checked.  Batched replay is also
    model-checked in NR's own code ({!Bi_nr.Nr_mc.batched_fc_vcs}). *)

val vcs : unit -> Bi_core.Vc.t list
