module Contract = Bi_core.Contract

(* Fault-injection hooks, called from inside the combiner protocol.  A hook
   that sleeps or spins models a stalled replica / delayed flat combiner;
   the default does nothing and costs two indirect calls per combine. *)
type hooks = {
  on_combine : replica:int -> unit;
      (* entered [combine] for this replica, before gathering requests *)
  on_apply : replica:int -> index:int -> unit;
      (* about to replay log entry [index] into this replica *)
}

let no_hooks =
  {
    on_combine = (fun ~replica:_ -> ());
    on_apply = (fun ~replica:_ ~index:_ -> ());
  }

(* How a replica replays the log.  [Batched] is the hot path: one
   combiner pass applies the whole pending window against the data
   structure and publishes the tail once.  [Sequential] is the reference
   replay (one apply, one tail publish per entry) the parity VCs compare
   against.  [Batched_unordered] is a seeded mutant for the [hp] suite:
   it applies the window in reverse order, which diverges from the
   sequential semantics on order-sensitive operations and must be caught
   by a falsified VC. *)
type replay = Sequential | Batched | Batched_unordered

type batch_stats = { batches : int; entries : int; max_batch : int }

module Make (DS : Seq_ds.S) = struct
  type replica = {
    id : int;
    ds : DS.t;
    lock : Rwlock.t;
    ltail : int Atomic.t;
        (* log entries applied; written only under [lock]'s writer side,
           read racily (without the lock) by the read path, hence atomic *)
    combiner : bool Atomic.t;
    requests : DS.op option Atomic.t array; (* one slot per thread of this replica *)
    responses : DS.ret option Atomic.t array;
  }

  type t = {
    log : DS.op Log.t;
    reps : replica array;
    tpr : int;
    replay : replay;
    combines : int Atomic.t; (* combiner passes that appended a batch *)
    max_batch : int Atomic.t;
    publishes : int Atomic.t; (* stores to some replica's ltail *)
    ghost_checks : int Atomic.t; (* ghost blocks that actually ran *)
    hooks : hooks;
  }

  let create ?(replicas = 2) ?(threads_per_replica = 8)
      ?(log_capacity = 4096) ?(replay = Batched) ?(hooks = no_hooks) () =
    if replicas <= 0 then invalid_arg "Nr.create: replicas <= 0";
    if threads_per_replica <= 0 then
      invalid_arg "Nr.create: threads_per_replica <= 0";
    (* A combiner appends up to one op per thread of its replica in one
       reservation; a smaller log could never take a full batch. *)
    if log_capacity < threads_per_replica then
      invalid_arg "Nr.create: log_capacity < threads_per_replica";
    let make_replica id =
      {
        id;
        ds = DS.create ();
        lock = Rwlock.create ();
        ltail = Atomic.make 0;
        combiner = Atomic.make false;
        requests = Array.init threads_per_replica (fun _ -> Atomic.make None);
        responses = Array.init threads_per_replica (fun _ -> Atomic.make None);
      }
    in
    {
      log = Log.create ~capacity:log_capacity;
      reps = Array.init replicas make_replica;
      tpr = threads_per_replica;
      replay;
      combines = Atomic.make 0;
      max_batch = Atomic.make 0;
      publishes = Atomic.make 0;
      ghost_checks = Atomic.make 0;
      hooks;
    }

  let replicas t = Array.length t.reps
  let threads_per_replica t = t.tpr
  let log_entries t = Log.tail t.log
  let combines t = Atomic.get t.combines
  let publishes t = Atomic.get t.publishes
  let ghost_checks t = Atomic.get t.ghost_checks

  let batch_stats t =
    {
      batches = Atomic.get t.combines;
      entries = Log.tail t.log;
      max_batch = Atomic.get t.max_batch;
    }

  let publish_ltail t r v =
    Atomic.incr t.publishes;
    Atomic.set r.ltail v

  (* Reference replay: one apply and one tail publish per entry.  Caller
     holds the writer lock. *)
  let apply_upto_seq t r upto =
    let i = ref (Atomic.get r.ltail) in
    while !i < upto do
      t.hooks.on_apply ~replica:r.id ~index:!i;
      let e = Log.get t.log !i in
      let ret = DS.apply r.ds e.Log.op in
      if e.Log.replica = r.id then
        Atomic.set r.responses.(e.Log.slot) (Some ret);
      incr i;
      publish_ltail t r !i
    done

  (* Batched replay: gather the whole pending window [ltail, upto), apply
     it against the structure with one [DS.apply_batch] call, publish the
     responses, and store the new tail once.  [reversed] is the
     [Batched_unordered] mutant. *)
  let apply_upto_batched t r upto ~reversed =
    let lo = Atomic.get r.ltail in
    let n = upto - lo in
    if n > 0 then begin
      let entries =
        Array.init n (fun i ->
            let e = Log.get t.log (lo + i) in
            t.hooks.on_apply ~replica:r.id ~index:(lo + i);
            e)
      in
      let ops = Array.map (fun e -> e.Log.op) entries in
      if reversed then begin
        (* Mutant: replay the window back to front. *)
        let half = n / 2 in
        for i = 0 to half - 1 do
          let tmp = ops.(i) in
          ops.(i) <- ops.(n - 1 - i);
          ops.(n - 1 - i) <- tmp
        done
      end;
      let rets = DS.apply_batch r.ds ops in
      Contract.ghost (fun () -> Atomic.incr t.ghost_checks);
      Contract.check_invariant ~name:"Nr.apply_batch.window" (fun () ->
          lo >= 0 && upto <= Log.tail t.log && Array.length rets = n);
      Array.iteri
        (fun i e ->
          if e.Log.replica = r.id then
            Atomic.set r.responses.(e.Log.slot) (Some rets.(i)))
        entries;
      publish_ltail t r upto
    end

  let apply_upto t r upto =
    match t.replay with
    | Sequential -> apply_upto_seq t r upto
    | Batched -> apply_upto_batched t r upto ~reversed:false
    | Batched_unordered -> apply_upto_batched t r upto ~reversed:true

  (* The log is full: a batch would overwrite an entry the slowest
     replica has not replayed.  Replay every lagging replica up to the
     tail under that replica's writer lock — one lock at a time, so this
     cannot deadlock with another reclaiming combiner — then move the
     log's head to the lowest replica tail.  A dormant replica is caught
     up on its behalf instead of wedging the appender.  The combiner's own
     replica is included: the combiner holds no lock while it appends. *)
  let reclaim t =
    let upto = Log.tail t.log in
    Array.iter
      (fun q ->
        if Atomic.get q.ltail < upto then
          Rwlock.with_write q.lock (fun () -> apply_upto t q upto))
      t.reps;
    Log.advance t.log
      (Array.fold_left (fun m q -> min m (Atomic.get q.ltail)) upto t.reps)

  let rec append t batch =
    match Log.append t.log batch with
    | (_ : int) -> ()
    | exception Log.Full ->
        reclaim t;
        append t batch

  (* Become the combiner for replica [r]: gather pending requests, append
     them to the log in one reservation, then replay the log (including
     other replicas' entries) into the local replica. *)
  let combine t r =
    t.hooks.on_combine ~replica:r.id;
    let batch = ref [] in
    let n = ref 0 in
    for slot = t.tpr - 1 downto 0 do
      match Atomic.exchange r.requests.(slot) None with
      | None -> ()
      | Some op ->
          batch := { Log.op; replica = r.id; slot } :: !batch;
          incr n
    done;
    (* An empty gather appends nothing and does not count as a batch —
       counting it would both inflate the batching stats and issue a
       pointless [Log.append].  The replay below still runs so an
       empty-handed combiner catches the replica up with entries other
       combiners appended. *)
    if !n > 0 then begin
      Atomic.incr t.combines;
      let rec bump () =
        let m = Atomic.get t.max_batch in
        if !n > m && not (Atomic.compare_and_set t.max_batch m !n) then bump ()
      in
      bump ();
      append t !batch
    end;
    let upto = Log.tail t.log in
    if Atomic.get r.ltail < upto then
      Rwlock.with_write r.lock (fun () -> apply_upto t r upto)

  let try_combine t r =
    if Atomic.compare_and_set r.combiner false true then begin
      Fun.protect
        ~finally:(fun () -> Atomic.set r.combiner false)
        (fun () -> combine t r);
      true
    end
    else false

  let execute_mutating t r slot op =
    Atomic.set r.requests.(slot) (Some op);
    let rec wait () =
      match Atomic.exchange r.responses.(slot) None with
      | Some ret -> ret
      | None ->
          (* Either combine on the replica's behalf or wait for the current
             combiner to deliver our response. *)
          ignore (try_combine t r : bool);
          Domain.cpu_relax ();
          wait ()
    in
    wait ()

  let execute_readonly t r op =
    let rec attempt () =
      let tail = Log.tail t.log in
      if Atomic.get r.ltail >= tail then begin
        (* [ltail] only grows (and is read atomically here, without the
           lock), so under the read lock the replica reflects at least
           [tail]; this read linearizes at the lock acquisition. *)
        Rwlock.with_read r.lock (fun () -> DS.apply r.ds op)
      end
      else begin
        ignore (try_combine t r : bool);
        Domain.cpu_relax ();
        attempt ()
      end
    in
    attempt ()

  let execute t ~thread op =
    let n = Array.length t.reps * t.tpr in
    if thread < 0 || thread >= n then invalid_arg "Nr.execute: bad thread id";
    let r = t.reps.(thread / t.tpr) in
    let slot = thread mod t.tpr in
    if DS.is_read_only op then execute_readonly t r op
    else execute_mutating t r slot op

  (* Single-domain batching driver: publish a request without waiting,
     trigger a combiner pass, collect a response.  Used by the hp parity
     VCs and benches to form batches of an exact size deterministically;
     concurrent use follows the same rules as [execute]. *)
  let submit t ~thread op =
    let n = Array.length t.reps * t.tpr in
    if thread < 0 || thread >= n then invalid_arg "Nr.submit: bad thread id";
    if DS.is_read_only op then invalid_arg "Nr.submit: read-only op";
    let r = t.reps.(thread / t.tpr) in
    Atomic.set r.requests.(thread mod t.tpr) (Some op)

  let kick t ~replica =
    if replica < 0 || replica >= Array.length t.reps then
      invalid_arg "Nr.kick: bad replica";
    try_combine t t.reps.(replica)

  let drain t ~thread =
    let n = Array.length t.reps * t.tpr in
    if thread < 0 || thread >= n then invalid_arg "Nr.drain: bad thread id";
    let r = t.reps.(thread / t.tpr) in
    Atomic.exchange r.responses.(thread mod t.tpr) None

  let sync_all t =
    let upto = Log.tail t.log in
    Array.iter
      (fun r ->
        Rwlock.with_write r.lock (fun () -> apply_upto t r upto))
      t.reps

  let peek t ~replica f =
    let r = t.reps.(replica) in
    Rwlock.with_read r.lock (fun () -> f r.ds)
end
