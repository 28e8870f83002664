(* Bounded MPMC queue for netd's worker pool, built on the verified
   userspace synchronization layer: one [Umutex] guards the ring, two
   [Ucond]s ([not_empty]/[not_full]) carry the wakeups, and both bottom
   out in the kernel's [Futex_wait]/[Futex_wake] syscalls.  This is the
   paper's layering argument made concrete — the queue's no-lost-wakeup
   property rests on the futex contract the kernel exports.  The code is
   written once over [Bi_ulib.Word.S]: netd runs [Make (Word.Usys)], and
   the [nd] suite's model VCs explore [Make (Word.Explore)] under every
   schedule (and the live VCs run it on the kernel).

   The ring itself is plain OCaml state, read and written only while
   holding [mutex]: every pair of conflicting accesses to it is ordered
   by the mutex word, which is why the model checker may treat them as
   local code rather than yield points.

   Ghost state: [pushed]/[popped] counters are maintained twice — once
   for real, once under [Contract.ghost] — and [check_invariant]
   re-asserts the ring arithmetic on every operation in Checked mode.
   Erased mode runs the same code with the ghost half compiled away,
   which is what the Checked≡Erased parity VCs rely on. *)

module Contract = Bi_core.Contract
module Word = Bi_ulib.Word

module type S = sig
  type ctx
  type 'a t

  val create : ctx -> capacity:int -> 'a t
  val push : ctx -> 'a t -> 'a -> bool
  val pop : ctx -> 'a t -> 'a option
  val close : ctx -> 'a t -> unit
  val capacity : 'a t -> int
  val length : 'a t -> int
  val pushed : 'a t -> int
  val popped : 'a t -> int
  val high_water : 'a t -> int
  val is_closed : 'a t -> bool
end

module Make (W : Word.S) = struct
  module Umutex = Bi_ulib.Umutex.Make (W)
  module Ucond = Bi_ulib.Ucond.Make (W) (Umutex)

  type ctx = W.ctx

  type 'a t = {
    mutex : Umutex.t;
    not_empty : Ucond.t;
    not_full : Ucond.t;
    buf : 'a option array;
    mutable head : int;  (** Index of the oldest element. *)
    mutable len : int;
    mutable closed : bool;
    mutable pushed : int;
    mutable popped : int;
    mutable high_water : int;
    (* Ghost mirror of the counters, updated only in Checked mode. *)
    mutable ghost_pushed : int;
    mutable ghost_popped : int;
    mutable saw_erased : bool;
        (* An op ran while the domain's mode was Erased (a caller mixing
           [with_mode] regions over one queue): the ghost mirror is then a
           subset of the real counters, not equal to them. *)
  }

  let invariant q =
    q.len >= 0
    && q.len <= Array.length q.buf
    && q.head >= 0
    && q.head < Array.length q.buf
    && q.pushed - q.popped = q.len
    && q.high_water <= Array.length q.buf

  let ghost_invariant q =
    (* Only meaningful in Checked mode ([Contract.check_invariant] never
       runs it in Erased).  If any op ran under Erased the mirror lags the
       real counters; a run that stayed Checked throughout must agree
       exactly. *)
    if q.saw_erased then
      q.ghost_pushed <= q.pushed && q.ghost_popped <= q.popped
    else q.ghost_pushed = q.pushed && q.ghost_popped = q.popped

  let check q =
    Contract.check_invariant ~name:"req_queue ring" (fun () -> invariant q);
    Contract.check_invariant ~name:"req_queue ghost counters" (fun () ->
        ghost_invariant q)

  let create ctx ~capacity =
    if capacity <= 0 then invalid_arg "Req_queue.create: capacity";
    {
      mutex = Umutex.create ctx;
      not_empty = Ucond.create ctx;
      not_full = Ucond.create ctx;
      buf = Array.make capacity None;
      head = 0;
      len = 0;
      closed = false;
      pushed = 0;
      popped = 0;
      high_water = 0;
      ghost_pushed = 0;
      ghost_popped = 0;
      saw_erased = false;
    }

  let capacity q = Array.length q.buf
  let length q = q.len
  let pushed q = q.pushed
  let popped q = q.popped
  let high_water q = q.high_water
  let is_closed q = q.closed

  let push ctx q x =
    Umutex.with_lock ctx q.mutex (fun () ->
        (* Predicate re-checked in a loop: Ucond wakeups can be spurious,
           and another producer may have refilled the slot first. *)
        while q.len = Array.length q.buf && not q.closed do
          Ucond.wait ctx q.not_full q.mutex
        done;
        if q.closed then false
        else begin
          let slot = (q.head + q.len) mod Array.length q.buf in
          q.buf.(slot) <- Some x;
          q.len <- q.len + 1;
          q.pushed <- q.pushed + 1;
          (match Contract.mode () with
          | Contract.Checked -> q.ghost_pushed <- q.ghost_pushed + 1
          | Contract.Erased -> q.saw_erased <- true);
          if q.len > q.high_water then q.high_water <- q.len;
          check q;
          Ucond.signal ctx q.not_empty;
          true
        end)

  let pop ctx q =
    Umutex.with_lock ctx q.mutex (fun () ->
        while q.len = 0 && not q.closed do
          Ucond.wait ctx q.not_empty q.mutex
        done;
        if q.len = 0 then None (* closed and drained *)
        else begin
          let x = q.buf.(q.head) in
          q.buf.(q.head) <- None;
          q.head <- (q.head + 1) mod Array.length q.buf;
          q.len <- q.len - 1;
          q.popped <- q.popped + 1;
          (match Contract.mode () with
          | Contract.Checked -> q.ghost_popped <- q.ghost_popped + 1
          | Contract.Erased -> q.saw_erased <- true);
          check q;
          Ucond.signal ctx q.not_full;
          x
        end)

  let close ctx q =
    Umutex.with_lock ctx q.mutex (fun () ->
        q.closed <- true;
        Ucond.broadcast ctx q.not_empty;
        Ucond.broadcast ctx q.not_full)
end

include Make (Word.Usys)
