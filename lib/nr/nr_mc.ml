(* NR's own code on the model checker: every world runs [Log.Make],
   [Rwlock.Make] or [Nr.Make_on] over [Cell.Explore], where each cell
   operation is one scheduling point and each wait an [Explore.await]. *)

module E = Bi_core.Explore
module Vc = Bi_core.Vc
module Lin = Counter.Lin
module X = Cell.Explore
module XLog = Log.Make (X)

(* The atomicity bug every mutant below has: a read-modify-write done
   as a read, then a write, with a scheduling point between. *)
module Split = struct
  include X

  let exchange c v =
    let old = get c in
    set c v;
    old

  let fetch_and_add c n =
    let old = get c in
    set c (old + n);
    old

  let compare_and_set c seen v =
    if get c == seen then (set c v; true) else false
end

let cat = "mc/nr"
let cat_mutation = "mutation"
let bounded = { E.default_config with E.preemption_bound = Some 2 }

(* The final state is read through the code's own API, whose reads are
   scheduling points.  [observe] runs such a check as the one thread of a
   nested exploration, which has exactly one schedule; a check that
   raises is reported as its failure.  The cells keep the outer
   exploration's ctx, which no operation on a var consults. *)
let observe check =
  let verdict = ref None in
  match
    E.run ~make:ignore ~threads:[ (fun () _ -> verdict := check ()) ] ()
  with
  | E.Pass _ -> !verdict
  | E.Fail ({ E.kind = E.Assertion msg; _ }, _) -> Some msg
  | E.Fail _ -> Some "final state could not be read"

(* A world is a VC and, for the census test, the exploration behind it. *)
type world = { vc : Vc.t; run : unit -> E.result }

let world ~id ?(category = cat) ?(config = E.default_config) ~make ~threads
    ~final () =
  {
    vc = E.vc ~id ~category ~config ~make ~threads ~final ();
    run = (fun () -> E.run ~config ~make ~threads ~final ());
  }

(* ------------------------------------------------------------------ *)
(* Log: CAS-reserve before publish *)

type log_state = { log : int XLog.t; start : int array }

let log_make ctx = { log = XLog.create ctx ~capacity:3; start = [| -1; -1 |] }

let log_appender st ctx =
  let i = E.self ctx in
  st.start.(i) <-
    XLog.append st.log [ { Log.op = i + 1; replica = 0; slot = i } ]

let w_log_no_lost_slots =
  (* Two concurrent appends into a roomy log: both must land, at
     distinct indices, with the tail counting exactly them. *)
  world ~id:"mc/nr/log/no-lost-slots" ~make:log_make
    ~threads:[ log_appender; log_appender ]
    ~final:(fun st ->
      observe (fun () ->
          let tail = XLog.tail st.log in
          let landed i = (XLog.get st.log st.start.(i)).Log.op = i + 1 in
          if
            tail = 2
            && List.sort compare (Array.to_list st.start) = [ 0; 1 ]
            && landed 0 && landed 1
          then None
          else
            Some
              (Printf.sprintf "tail=%d starts=[%d;%d]" tail st.start.(0)
                 st.start.(1))))
    ()

(* ------------------------------------------------------------------ *)
(* Rwlock: >= 0 readers, -1 writer *)

(* The occupancy cell counts readers, and 100 per writer, inside the
   lock. *)
module Rw_world (C : Cell.S with type ctx = E.ctx) = struct
  module Rw = Rwlock.Make (C)

  type t = { l : Rw.t; occ : E.var }

  let make ctx = { l = Rw.create ctx; occ = E.var ctx ~name:"occ" 0 }

  let reader st ctx =
    Rw.with_read st.l (fun () ->
        let o = E.update ctx st.occ (fun o -> o + 1) in
        E.check ctx (o < 100) "reader overlaps a writer";
        ignore (E.update ctx st.occ (fun o -> o - 1)))

  let writer st ctx =
    Rw.with_write st.l (fun () ->
        let o = E.update ctx st.occ (fun o -> o + 100) in
        E.check ctx (o = 0) "writer overlaps readers or another writer";
        ignore (E.update ctx st.occ (fun o -> o - 100)))

  let final st =
    observe (fun () ->
        match Rw.readers st.l with
        | 0 when Rw.try_acquire_write st.l -> None
        | 0 -> Some "rwlock left in state -1"
        | n -> Some (Printf.sprintf "rwlock left in state %d" n))
end

module Rw = Rw_world (X)

let w_rw_write_excludes =
  world ~id:"mc/nr/rwlock/write-excludes" ~config:bounded ~make:Rw.make
    ~threads:[ Rw.writer; Rw.reader; Rw.reader ]
    ~final:Rw.final ()

let w_rw_two_writers =
  world ~id:"mc/nr/rwlock/two-writers-exclude" ~make:Rw.make
    ~threads:[ Rw.writer; Rw.writer ] ~final:Rw.final ()

let vc_mutation_rw_nonatomic_release =
  (* Two readers over the split cell: their acquires and releases lose
     each other's updates and the lock never drains. *)
  let module Rw = Rw_world (Split) in
  E.vc_catches ~id:"mc/mutation/rwlock-nonatomic-release"
    ~category:cat_mutation
    ~expect:(fun f -> match f.E.kind with E.Assertion _ -> true | _ -> false)
    ~make:Rw.make
    ~threads:[ Rw.reader; Rw.reader ]
    ~final:Rw.final ()

(* ------------------------------------------------------------------ *)
(* The replicated counter, linearizability-checked *)

(* Thread [i] of the world is NR thread [i]; each records its call. *)
module Nr_world (C : Cell.S with type ctx = E.ctx) = struct
  module N = Nr.Make_on (C) (Counter)

  type t = { nr : N.t; replicas : int; calls : Lin.call list ref }

  let make ~replicas ~threads_per_replica ~log_capacity ~replay ctx =
    {
      nr = N.create ~replicas ~threads_per_replica ~log_capacity ~replay ctx;
      replicas;
      calls = ref [];
    }

  let call op st ctx =
    let proc = E.self ctx in
    let inv = E.now ctx in
    let ret = N.execute st.nr ~thread:proc op in
    let res = E.now ctx in
    st.calls := { Lin.proc; op; ret; inv; res } :: !(st.calls)

  let incr = call Counter.Incr
  let read = call Counter.Read

  let linearizable st =
    match Lin.counterexample ~init:0 !(st.calls) with
    | None -> None
    | Some msg -> Some ("history not linearizable: " ^ msg)

  (* Stronger than linearizability for increments alone: the responses
     are exactly 1..n, and every replica, brought up to the log tail,
     holds n. *)
  let exact st =
    let rets =
      List.sort compare (List.map (fun c -> c.Lin.ret) !(st.calls))
    in
    let n = List.length rets in
    let ints l = String.concat ";" (List.map string_of_int l) in
    observe (fun () ->
        let entries = N.log_entries st.nr in
        N.sync_all st.nr;
        let values =
          List.init st.replicas (fun replica -> N.peek st.nr ~replica ( ! ))
        in
        if
          rets = List.init n succ && entries = n
          && List.for_all (( = ) n) values
        then None
        else
          Some
            (Printf.sprintf "returns [%s], log entries %d, replicas [%s]"
               (ints rets) entries (ints values)))
end

module Fc = Nr_world (X)

(* One replica whose threads share a combiner; the log has room for
   every op, so nothing is reclaimed. *)
let fc_make ~replay n =
  Fc.make ~replicas:1 ~threads_per_replica:n ~log_capacity:n ~replay

let fc_worlds ~prefix ~category replay =
  let two_incrs name final =
    world ~id:(prefix ^ name) ~category ~make:(fc_make ~replay 2)
      ~threads:[ Fc.incr; Fc.incr ] ~final ()
  in
  [
    two_incrs "/linearizable-2t" Fc.linearizable;
    two_incrs "/responses-exact" Fc.exact;
  ]

let w_fc_linearizable_3t =
  world ~id:"mc/nr/fc/linearizable-3t-bound2" ~config:bounded
    ~make:(fc_make ~replay:Nr.Sequential 3)
    ~threads:[ Fc.incr; Fc.incr; Fc.incr ]
    ~final:Fc.linearizable ()

let w_fc_with_reader =
  (* The read path: a reader behind the log tail combines or waits for
     the combiner, then reads under the replica's read lock. *)
  world ~id:"mc/nr/fc/reader-linearizes" ~config:bounded
    ~make:(fc_make ~replay:Nr.Sequential 3)
    ~threads:[ Fc.incr; Fc.incr; Fc.read ]
    ~final:Fc.linearizable ()

(* Two replicas of one thread each over a one-slot log: the second
   append finds the log full, so its combiner replays the other replica
   under that replica's writer lock, advances the head to the slowest
   replica, and reuses the slot.  [Log.get] of an entry whose slot was
   reused too early raises ("entry reclaimed"). *)
let ring_make =
  Fc.make ~replicas:2 ~threads_per_replica:1 ~log_capacity:1 ~replay:Nr.Batched

let w_log_capacity =
  world ~id:"mc/nr/log/capacity-respected" ~make:ring_make
    ~threads:[ Fc.incr; Fc.incr ] ~final:Fc.exact ()

let vc_mutation_log_split_reserve =
  (* The whole protocol over the split cell: two combiners both reserve
     the log's one slot, or both take a combiner flag or lock. *)
  let module Fc = Nr_world (Split) in
  E.vc_catches ~id:"mc/mutation/log-split-reserve" ~category:cat_mutation
    ~expect:(fun f -> match f.E.kind with E.Assertion _ -> true | _ -> false)
    ~make:(Fc.make ~replicas:2 ~threads_per_replica:1 ~log_capacity:1
             ~replay:Nr.Batched)
    ~threads:[ Fc.incr; Fc.incr ] ~final:Fc.exact ()

let mc_worlds () =
  [ w_log_no_lost_slots; w_log_capacity; w_rw_write_excludes; w_rw_two_writers ]
  @ fc_worlds ~prefix:"mc/nr/fc" ~category:cat Nr.Sequential
  @ [ w_fc_linearizable_3t; w_fc_with_reader ]

let batched_worlds () =
  fc_worlds ~prefix:"hp/mc/batched-fc" ~category:"hp/mc" Nr.Batched

let vcs () =
  List.map (fun w -> w.vc) (mc_worlds ())
  @ [ vc_mutation_log_split_reserve; vc_mutation_rw_nonatomic_release ]

let batched_fc_vcs () = List.map (fun w -> w.vc) (batched_worlds ())

let explore id =
  match
    List.find_opt
      (fun w -> w.vc.Vc.id = id)
      (mc_worlds () @ batched_worlds ())
  with
  | Some w -> w.run ()
  | None -> invalid_arg ("Nr_mc.explore: no world " ^ id)
