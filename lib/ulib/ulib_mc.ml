(* Model-checked drivers for the ulib primitives.  Each driver runs the
   primitive's own code, instantiated over [Word.Explore]: a
   [Word.update] (on the kernel, a load+store with no syscall between)
   is one [Explore.update], a futex wait/wake is [park ~expect]/[unpark].
   What the explorer proves is therefore a property of the code user
   threads run — and the seeded mutations are the atomicity bugs that
   code would have if that reasoning were wrong. *)

module E = Bi_core.Explore
module Vc = Bi_core.Vc
module Mutex = Umutex.Make (Word.Explore)
module Cond = Ucond.Make (Word.Explore) (Mutex)
module Sem = Usem.Make (Word.Explore)
module Rw = Urwlock.Make (Word.Explore)
module Barrier = Ubarrier.Make (Word.Explore)

let cat = "mc/ulib"
let cat_mutation = "mutation"

(* Bounded search: the drivers below run 2-3 threads with ~10 yield
   points each; CHESS-style preemption bounding keeps exploration small
   while still covering every bug reachable with two preemptions (all
   the seeded ones need one). *)
let bounded = { E.default_config with E.preemption_bound = Some 2 }

(* ------------------------------------------------------------------ *)
(* Critical-section instrumentation: entering increments an occupancy
   cell and asserts it was free; leaving decrements. *)

let cs_enter ctx cs =
  let prev = E.update ctx cs (fun c -> c + 1) in
  E.check ctx (prev = 0) "mutual exclusion violated"

let cs_exit ctx cs = ignore (E.update ctx cs (fun c -> c - 1))

(* ------------------------------------------------------------------ *)
(* Umutex: 0 unlocked, 1 locked, 2 locked with possible waiters. *)

type mutex_state = { m : Mutex.t; cs : E.var }

let mutex_make ctx = { m = Mutex.create ctx; cs = E.var ctx ~name:"cs" 0 }

let mutex_worker st ctx =
  Mutex.lock ctx st.m;
  cs_enter ctx st.cs;
  cs_exit ctx st.cs;
  Mutex.unlock ctx st.m

let mutex_final st =
  if E.peek st.m = 0 then None
  else Some (Printf.sprintf "mutex left in state %d" (E.peek st.m))

let vc_mutex_exclusion_2t =
  E.vc ~id:"mc/umutex/mutual-exclusion-2t" ~category:cat ~make:mutex_make
    ~threads:[ mutex_worker; mutex_worker ] ~final:mutex_final ()

let vc_mutex_exclusion_3t =
  E.vc ~id:"mc/umutex/mutual-exclusion-3t" ~category:cat ~config:bounded
    ~make:mutex_make
    ~threads:[ mutex_worker; mutex_worker; mutex_worker ]
    ~final:mutex_final ()

(* No lost wakeup: every contender eventually acquires; a wakeup dropped
   anywhere shows up as a deadlock (parked thread nobody will wake),
   which the explorer reports on its own. *)
let vc_mutex_no_lost_wakeup =
  E.vc ~id:"mc/umutex/no-lost-wakeup" ~category:cat ~config:bounded
    ~make:mutex_make
    ~threads:
      [
        (fun st ctx ->
          Mutex.lock ctx st.m;
          Mutex.unlock ctx st.m;
          Mutex.lock ctx st.m;
          Mutex.unlock ctx st.m);
        mutex_worker;
        mutex_worker;
      ]
    ~final:mutex_final ()

(* Mutation 1: unlock that drops the wake (stores 0 but never calls
   futex_wake).  A parked waiter sleeps forever: deadlock. *)
let vc_mutation_unlock_drops_wake =
  let broken_unlock ctx m = ignore (E.update ctx m (fun _ -> 0)) in
  E.vc_catches ~id:"mc/mutation/umutex-unlock-drops-wake"
    ~category:cat_mutation
    ~expect:(fun f ->
      match f.E.kind with E.Deadlock _ -> true | _ -> false)
    ~make:mutex_make
    ~threads:
      [
        (fun st ctx ->
          Mutex.lock ctx st.m;
          cs_enter ctx st.cs;
          cs_exit ctx st.cs;
          broken_unlock ctx st.m);
        mutex_worker;
      ]
    ()

(* Mutation 2: the fast path's load+store split in two yield points, as
   if a syscall (= preemption opportunity) sat between them.  Two
   threads both read 0 and both enter.  (Splitting every update of the
   word is caught first as a lost wakeup, a deadlock, so only the fast
   path is broken here.) *)
let vc_mutation_nonatomic_fastpath =
  let broken_lock ctx m =
    if E.read ctx m = 0 then E.write ctx m 1 else Mutex.lock ctx m
  in
  E.vc_catches ~id:"mc/mutation/umutex-nonatomic-rmw" ~category:cat_mutation
    ~expect:(fun f ->
      match f.E.kind with E.Assertion _ -> true | _ -> false)
    ~make:mutex_make
    ~threads:
      [
        (fun st ctx ->
          broken_lock ctx st.m;
          cs_enter ctx st.cs;
          cs_exit ctx st.cs;
          Mutex.unlock ctx st.m);
        (fun st ctx ->
          broken_lock ctx st.m;
          cs_enter ctx st.cs;
          cs_exit ctx st.cs;
          Mutex.unlock ctx st.m);
      ]
    ()

(* ------------------------------------------------------------------ *)
(* Urwlock: word >= 0 is the reader count, -1 a writer. *)

(* Occupancy encoding: a writer adds 100, a reader 1; a writer must see
   an empty section, a reader at most other readers. *)
type rw_state = { l : Rw.t; occ : E.var }

let rw_make ctx = { l = Rw.create ctx; occ = E.var ctx ~name:"occ" 0 }

let rw_reader st ctx =
  Rw.read_lock ctx st.l;
  let o = E.update ctx st.occ (fun o -> o + 1) in
  E.check ctx (o < 100) "reader overlaps a writer";
  ignore (E.update ctx st.occ (fun o -> o - 1));
  Rw.read_unlock ctx st.l

let rw_writer st ctx =
  Rw.write_lock ctx st.l;
  let o = E.update ctx st.occ (fun o -> o + 100) in
  E.check ctx (o = 0) "writer overlaps readers or another writer";
  ignore (E.update ctx st.occ (fun o -> o - 100));
  Rw.write_unlock ctx st.l

let rw_final st =
  if E.peek st.l = 0 then None
  else Some (Printf.sprintf "rwlock left in state %d" (E.peek st.l))

let vc_rw_writer_excludes =
  E.vc ~id:"mc/urwlock/writer-excludes" ~category:cat ~config:bounded
    ~make:rw_make
    ~threads:[ rw_writer; rw_reader; rw_reader ]
    ~final:rw_final ()

let vc_rw_two_writers =
  E.vc ~id:"mc/urwlock/two-writers-exclude" ~category:cat ~make:rw_make
    ~threads:[ rw_writer; rw_writer ] ~final:rw_final ()

(* Readers must be able to share: some schedule has both readers inside
   the section at once.  The witness ref lives outside [make], so it
   accumulates across all explored schedules. *)
let vc_rw_readers_share =
  Vc.make ~id:"mc/urwlock/readers-share" ~category:cat (fun () ->
      let witnessed = ref false in
      let reader st ctx =
        Rw.read_lock ctx st.l;
        let o = E.update ctx st.occ (fun o -> o + 1) in
        if o = 1 then witnessed := true;
        ignore (E.update ctx st.occ (fun o -> o - 1));
        Rw.read_unlock ctx st.l
      in
      match
        E.run ~make:rw_make ~threads:[ reader; reader ] ~final:rw_final ()
      with
      | E.Fail (f, _) ->
          Vc.Falsified ("two readers must not fail: " ^
                        String.concat " | " f.E.trace)
      | E.Pass stats when not stats.E.complete ->
          Vc.Capped "reader-sharing exploration capped"
      | E.Pass _ ->
          if !witnessed then Vc.Proved
          else Vc.Falsified "no schedule had two concurrent readers")

(* Mutation 3 (counted under nr's rwlock family): Nr_mc runs the NR
   rwlock's own code over a cell whose every read-modify-write is split
   in two. *)

(* ------------------------------------------------------------------ *)
(* Usem: the word is the permit count. *)

type sem_state = { s : Sem.t; sem_cs : E.var }

let sem_make init ctx =
  { s = Sem.create ctx init; sem_cs = E.var ctx ~name:"cs" 0 }

let vc_sem_binary_excludes =
  let worker st ctx =
    Sem.wait ctx st.s;
    cs_enter ctx st.sem_cs;
    cs_exit ctx st.sem_cs;
    Sem.post ctx st.s
  in
  E.vc ~id:"mc/usem/binary-excludes" ~category:cat ~config:bounded
    ~make:(sem_make 1)
    ~threads:[ worker; worker; worker ]
    ~final:(fun st ->
      if E.peek st.s = 1 then None else Some "permit lost or duplicated")
    ()

let vc_sem_post_wakes =
  (* Consumers may park before the producers post; every post's wake
     must reach a sleeper — a lost wake is a deadlock.  Two of each: with
     one waiter, a post that wakes only on 0 -> 1 passes too, yet leaves
     the second of two parked waiters asleep. *)
  let waiter st ctx = Sem.wait ctx st.s in
  let poster st ctx = Sem.post ctx st.s in
  E.vc ~id:"mc/usem/post-wakes" ~category:cat
    ~make:(sem_make 0)
    ~threads:[ waiter; waiter; poster; poster ]
    ~final:(fun st ->
      if E.peek st.s = 0 then None else Some "permit count wrong")
    ()

(* ------------------------------------------------------------------ *)
(* Ucond: a sequence word; wait snapshots it, releases the mutex, parks
   unless the sequence moved; signal bumps it and wakes. *)

type cond_state = { cm : Mutex.t; seq : Cond.t; ready : E.var }

let cond_make ctx =
  {
    cm = Mutex.create ctx;
    seq = Cond.create ctx;
    ready = E.var ctx ~name:"ready" 0;
  }

let vc_cond_no_lost_signal =
  (* The classic missed-signal window: the waiter releases the mutex and
     only then parks; a signal landing inside that window must still be
     seen (the sequence word moved, so the park returns immediately). *)
  let waiter st ctx =
    Mutex.lock ctx st.cm;
    let rec loop () =
      if E.read ctx st.ready = 0 then begin
        Cond.wait ctx st.seq st.cm;
        loop ()
      end
    in
    loop ();
    Mutex.unlock ctx st.cm
  in
  let signaler st ctx =
    Mutex.lock ctx st.cm;
    E.write ctx st.ready 1;
    Cond.signal ctx st.seq;
    Mutex.unlock ctx st.cm
  in
  E.vc ~id:"mc/ucond/no-lost-signal" ~category:cat ~config:bounded
    ~make:cond_make
    ~threads:[ waiter; signaler ]
    ~final:(fun st ->
      if E.peek st.cm = 0 then None else Some "mutex held at exit")
    ()

(* ------------------------------------------------------------------ *)
(* Ubarrier: generation + arrival count; the last arrival resets the
   count, bumps the generation and wakes everyone. *)

type barrier_state = { b : Barrier.t; arrived : E.var }

let barrier_make parties ctx =
  { b = Barrier.create ctx ~parties; arrived = E.var ctx ~name:"arrived" 0 }

let vc_barrier_rendezvous =
  (* Rendezvous: nobody crosses the barrier before everyone arrived. *)
  let worker st ctx =
    ignore (E.update ctx st.arrived (fun a -> a + 1));
    ignore (Barrier.await ctx st.b : int);
    E.check ctx
      (E.read ctx st.arrived = Barrier.parties st.b)
      "crossed the barrier before full rendezvous"
  in
  E.vc ~id:"mc/ubarrier/rendezvous" ~category:cat ~config:bounded
    ~make:(barrier_make 3)
    ~threads:[ worker; worker; worker ]
    ~final:(fun st ->
      if E.peek st.b.count = 0 then None else Some "arrival count not reset")
    ()

let vcs () =
  [
    vc_mutex_exclusion_2t;
    vc_mutex_exclusion_3t;
    vc_mutex_no_lost_wakeup;
    vc_mutation_unlock_drops_wake;
    vc_mutation_nonatomic_fastpath;
    vc_rw_writer_excludes;
    vc_rw_two_writers;
    vc_rw_readers_share;
    vc_sem_binary_excludes;
    vc_sem_post_wakes;
    vc_cond_no_lost_signal;
    vc_barrier_rendezvous;
  ]
