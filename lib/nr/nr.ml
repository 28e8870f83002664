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
   against. *)
type replay = Sequential | Batched

type batch_stats = { batches : int; entries : int; max_batch : int }

(* Every cell the protocol branches on is a [C.t]; the statistics
   counters below ([combines], [max_batch], [publishes], [ghost_checks])
   are read by nothing in it, so they stay plain [Atomic.t] in every
   instance and are no scheduling point for the model checker. *)
module Make_on (C : Cell.S) (DS : Seq_ds.S) = struct
  module L = Log.Make (C)
  module Rw = Rwlock.Make (C)

  type replica = {
    id : int;
    ds : DS.t;
    lock : Rw.t;
    ltail : int C.t;
        (* log entries applied; written only under [lock]'s writer side,
           read racily (without the lock) by the read path, hence atomic *)
    combiner : bool C.t;
    requests : DS.op option C.t array; (* one slot per thread of this replica *)
    responses : DS.ret option C.t array;
  }

  type t = {
    log : DS.op L.t;
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
      ?(log_capacity = 4096) ?(replay = Batched) ?(hooks = no_hooks) ctx =
    if replicas <= 0 then invalid_arg "Nr.create: replicas <= 0";
    if threads_per_replica <= 0 then
      invalid_arg "Nr.create: threads_per_replica <= 0";
    (* A combiner appends up to one op per thread of its replica in one
       reservation; a smaller log could never take a full batch. *)
    if log_capacity < threads_per_replica then
      invalid_arg "Nr.create: log_capacity < threads_per_replica";
    let make_replica id =
      let cell what v = C.make ctx ~name:(what ^ string_of_int id) v in
      let slots what =
        Array.init threads_per_replica (fun i ->
            cell (what ^ string_of_int i ^ "@") None)
      in
      {
        id;
        ds = DS.create ();
        lock = Rw.create ctx;
        ltail = cell "ltail" 0;
        combiner = cell "combiner" false;
        requests = slots "req";
        responses = slots "resp";
      }
    in
    {
      log = L.create ctx ~capacity:log_capacity;
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
  let log_entries t = L.tail t.log
  let combines t = Atomic.get t.combines
  let publishes t = Atomic.get t.publishes
  let ghost_checks t = Atomic.get t.ghost_checks

  let batch_stats t =
    {
      batches = Atomic.get t.combines;
      entries = L.tail t.log;
      max_batch = Atomic.get t.max_batch;
    }

  let publish_ltail t r v =
    Atomic.incr t.publishes;
    C.set r.ltail v

  (* Reference replay: one apply and one tail publish per entry.  Caller
     holds the writer lock. *)
  let apply_upto_seq t r upto =
    let i = ref (C.get r.ltail) in
    while !i < upto do
      t.hooks.on_apply ~replica:r.id ~index:!i;
      let e = L.get t.log !i in
      let ret = DS.apply r.ds e.Log.op in
      if e.Log.replica = r.id then
        C.set r.responses.(e.Log.slot) (Some ret);
      incr i;
      publish_ltail t r !i
    done

  (* Batched replay: gather the whole pending window [ltail, upto), apply
     it against the structure with one [DS.apply_batch] call, publish the
     responses, and store the new tail once. *)
  let apply_upto_batched t r upto =
    let lo = C.get r.ltail in
    let n = upto - lo in
    if n > 0 then begin
      let entries =
        Array.init n (fun i ->
            let e = L.get t.log (lo + i) in
            t.hooks.on_apply ~replica:r.id ~index:(lo + i);
            e)
      in
      let ops = Array.map (fun e -> e.Log.op) entries in
      let rets = DS.apply_batch r.ds ops in
      Contract.ghost (fun () -> Atomic.incr t.ghost_checks);
      (* Local values only: reading the log tail here would add a
         scheduling point that Erased mode does not have.  [upto] was read
         from the tail, which never decreases, so [upto <= tail] holds. *)
      Contract.check_invariant ~name:"Nr.apply_batch.window" (fun () ->
          lo >= 0 && Array.length rets = n);
      Array.iteri
        (fun i e ->
          if e.Log.replica = r.id then
            C.set r.responses.(e.Log.slot) (Some rets.(i)))
        entries;
      publish_ltail t r upto
    end

  let apply_upto t r upto =
    match t.replay with
    | Sequential -> apply_upto_seq t r upto
    | Batched -> apply_upto_batched t r upto

  (* The log is full: a batch would overwrite an entry the slowest
     replica has not replayed.  Replay every lagging replica up to the
     tail under that replica's writer lock — one lock at a time, so this
     cannot deadlock with another reclaiming combiner — then move the
     log's head to the lowest replica tail.  A dormant replica is caught
     up on its behalf instead of wedging the appender.  The combiner's own
     replica is included: the combiner holds no lock while it appends. *)
  let reclaim t =
    let upto = L.tail t.log in
    Array.iter
      (fun q ->
        if C.get q.ltail < upto then
          Rw.with_write q.lock (fun () -> apply_upto t q upto))
      t.reps;
    L.advance t.log
      (Array.fold_left (fun m q -> min m (C.get q.ltail)) upto t.reps)

  let rec append t batch =
    match L.append t.log batch with
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
      match C.exchange r.requests.(slot) None with
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
    let upto = L.tail t.log in
    if C.get r.ltail < upto then
      Rw.with_write r.lock (fun () -> apply_upto t r upto)

  let try_combine t r =
    if C.compare_and_set r.combiner false true then begin
      Fun.protect
        ~finally:(fun () -> C.set r.combiner false)
        (fun () -> combine t r);
      true
    end
    else false

  (* Combine on the replica's behalf, or wait for the current combiner to
     finish; the caller then re-checks what it is waiting for. *)
  let combine_or_wait t r =
    if not (try_combine t r) then ignore (C.await r.combiner not : bool)

  let execute_mutating t r slot op =
    C.set r.requests.(slot) (Some op);
    let rec wait () =
      match C.exchange r.responses.(slot) None with
      | Some ret -> ret
      | None ->
          combine_or_wait t r;
          wait ()
    in
    wait ()

  let execute_readonly t r op =
    let rec attempt () =
      let tail = L.tail t.log in
      if C.get r.ltail >= tail then begin
        (* [ltail] only grows (and is read atomically here, without the
           lock), so under the read lock the replica reflects at least
           [tail]; this read linearizes at the lock acquisition. *)
        Rw.with_read r.lock (fun () -> DS.apply r.ds op)
      end
      else begin
        combine_or_wait t r;
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
    C.set r.requests.(thread mod t.tpr) (Some op)

  let kick t ~replica =
    if replica < 0 || replica >= Array.length t.reps then
      invalid_arg "Nr.kick: bad replica";
    try_combine t t.reps.(replica)

  let drain t ~thread =
    let n = Array.length t.reps * t.tpr in
    if thread < 0 || thread >= n then invalid_arg "Nr.drain: bad thread id";
    let r = t.reps.(thread / t.tpr) in
    C.exchange r.responses.(thread mod t.tpr) None

  let sync_all t =
    let upto = L.tail t.log in
    Array.iter
      (fun r ->
        Rw.with_write r.lock (fun () -> apply_upto t r upto))
      t.reps

  let peek t ~replica f =
    let r = t.reps.(replica) in
    Rw.with_read r.lock (fun () -> f r.ds)
end

module Make (DS : Seq_ds.S) = Make_on (Cell.Atomic) (DS)
