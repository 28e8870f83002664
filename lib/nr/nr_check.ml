module Vc = Bi_core.Vc
module Gen = Bi_core.Gen

(* The sequential structure NR lifts in these checks: a small KV map. *)
module Kv = struct
  type t = (int, int) Hashtbl.t
  type op = Put of int * int | Get of int | Delete of int | Size
  type ret = Unit | Found of int option | Count of int

  let create () = Hashtbl.create 16

  let apply t = function
    | Put (k, v) ->
        Hashtbl.replace t k v;
        Unit
    | Get k -> Found (Hashtbl.find_opt t k)
    | Delete k ->
        Hashtbl.remove t k;
        Unit
    | Size -> Count (Hashtbl.length t)

  include Seq_ds.Batch_of_apply (struct
    type nonrec t = t
    type nonrec op = op
    type nonrec ret = ret

    let apply = apply
  end)

  let is_read_only = function Get _ | Size -> true | Put _ | Delete _ -> false
end

module Nr_kv = Nr.Make (Kv)

let gen_op g =
  match Gen.int g 10 with
  | 0 | 1 | 2 | 3 -> Kv.Put (Gen.int g 16, Gen.int g 1000)
  | 4 | 5 -> Kv.Get (Gen.int g 16)
  | 6 | 7 -> Kv.Delete (Gen.int g 16)
  | _ -> Kv.Size

(* ------------------------------------------------------------------ *)
(* Log obligations                                                     *)

let log_vcs () =
  [
    Vc.prop ~id:"nr/log/order-preserved" ~category:"nr/log" (fun () ->
        let log = Log.create ~capacity:256 in
        let entry i = { Log.op = i; replica = 0; slot = 0 } in
        ignore (Log.append log [ entry 0; entry 1; entry 2 ]);
        ignore (Log.append log [ entry 3 ]);
        Log.tail log = 4
        && List.init 4 (fun i -> (Log.get log i).Log.op) = [ 0; 1; 2; 3 ]);
    Vc.prop ~id:"nr/log/capacity-enforced" ~category:"nr/log" (fun () ->
        let log = Log.create ~capacity:2 in
        let e = { Log.op = (); replica = 0; slot = 0 } in
        ignore (Log.append log [ e; e ]);
        match Log.append log [ e ] with
        | exception Log.Full -> true
        | _ -> false);
    Vc.prop ~id:"nr/log/concurrent-reservation-atomic" ~category:"nr/log"
      (fun () ->
        (* Two domains racing on the tail: no slot lost, none duplicated. *)
        let log = Log.create ~capacity:4096 in
        let appender base () =
          for i = 0 to 499 do
            ignore (Log.append log [ { Log.op = base + i; replica = 0; slot = 0 } ])
          done
        in
        let d1 = Domain.spawn (appender 0) in
        let d2 = Domain.spawn (appender 1000) in
        Domain.join d1;
        Domain.join d2;
        let seen = Hashtbl.create 1000 in
        for i = 0 to Log.tail log - 1 do
          Hashtbl.replace seen (Log.get log i).Log.op ()
        done;
        Log.tail log = 1000 && Hashtbl.length seen = 1000);
  ]

(* ------------------------------------------------------------------ *)
(* Rwlock obligations                                                  *)

let rwlock_vcs () =
  [
    Vc.prop ~id:"nr/rwlock/writer-excludes-readers" ~category:"nr/rwlock"
      (fun () ->
        let l = Rwlock.create () in
        Rwlock.acquire_read l;
        let w1 = Rwlock.try_acquire_write l in
        Rwlock.release_read l;
        let w2 = Rwlock.try_acquire_write l in
        let r_blocked_by_writer = not (Rwlock.try_acquire_write l) in
        Rwlock.release_write l;
        (not w1) && w2 && r_blocked_by_writer);
    Vc.prop ~id:"nr/rwlock/domain-mutual-exclusion" ~category:"nr/rwlock"
      (fun () ->
        let l = Rwlock.create () in
        let counter = ref 0 in
        let writer () =
          for _ = 1 to 2000 do
            Rwlock.acquire_write l;
            let v = !counter in
            counter := v + 1;
            Rwlock.release_write l
          done
        in
        let d1 = Domain.spawn writer and d2 = Domain.spawn writer in
        Domain.join d1;
        Domain.join d2;
        !counter = 4000);
  ]

(* ------------------------------------------------------------------ *)
(* Replicated-structure obligations                                    *)

let equivalence_vc seed =
  let id = Printf.sprintf "nr/equiv/random-trace/%02d" seed in
  Vc.prop ~id ~category:"nr/equivalence" (fun () ->
      let g = Gen.of_string id in
      let nr = Nr_kv.create ~replicas:2 ~threads_per_replica:2 () in
      let plain = Kv.create () in
      let ok = ref true in
      for i = 0 to 149 do
        let op = gen_op g in
        let thread = i mod 4 in
        if Nr_kv.execute nr ~thread op <> Kv.apply plain op then ok := false
      done;
      !ok)

let convergence_vc seed =
  let id = Printf.sprintf "nr/equiv/convergence/%02d" seed in
  Vc.prop ~id ~category:"nr/equivalence" (fun () ->
      let g = Gen.of_string id in
      let nr = Nr_kv.create ~replicas:3 ~threads_per_replica:2 () in
      for i = 0 to 99 do
        ignore (Nr_kv.execute nr ~thread:(i mod 6) (gen_op g))
      done;
      Nr_kv.sync_all nr;
      let dump r =
        Nr_kv.peek nr ~replica:r (fun t ->
            List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []))
      in
      dump 0 = dump 1 && dump 0 = dump 2)

let read_path_vcs () =
  [
    Vc.prop ~id:"nr/read/skips-log" ~category:"nr/read" (fun () ->
        let nr = Nr_kv.create () in
        ignore (Nr_kv.execute nr ~thread:0 (Kv.Put (1, 1)));
        let entries = Nr_kv.log_entries nr in
        ignore (Nr_kv.execute nr ~thread:0 (Kv.Get 1));
        ignore (Nr_kv.execute nr ~thread:0 Kv.Size);
        Nr_kv.log_entries nr = entries);
    Vc.prop ~id:"nr/read/sees-remote-writes" ~category:"nr/read" (fun () ->
        let nr = Nr_kv.create ~replicas:2 ~threads_per_replica:2 () in
        ignore (Nr_kv.execute nr ~thread:0 (Kv.Put (9, 90)));
        Nr_kv.execute nr ~thread:2 (Kv.Get 9) = Kv.Found (Some 90));
  ]

(* ------------------------------------------------------------------ *)
(* Linearizability of real concurrent histories                        *)

module Nr_counter = Nr.Make (Counter)

let linearizability_vc seed =
  let id = Printf.sprintf "nr/linearizable/2-domains/%02d" seed in
  Vc.prop ~id ~category:"nr/linearizability" (fun () ->
      let nr = Nr_counter.create ~replicas:2 ~threads_per_replica:2 () in
      let history =
        Counter.two_domain_history ~calls:30
          ~op:(fun i -> if i mod 5 = 4 then Counter.Read else Counter.Incr)
          (Nr_counter.execute nr)
      in
      Counter.Lin.check ~init:0 history)

let vcs () =
  log_vcs () @ rwlock_vcs ()
  @ List.init 6 equivalence_vc
  @ List.init 4 convergence_vc
  @ read_path_vcs ()
  @ List.init 2 linearizability_vc
