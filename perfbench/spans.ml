(* The traced run's span log, recorded from outside the layers.

   Every span is opened and closed by a wrapper the benchmark puts around
   a layer's public function: the [Resilient_client] call, the
   [Nd_client.rpc] endpoint, [Node_core.handle]/[recover], and the
   [Node_core.store]/[Journal.sink] records built by [Storage_node].
   Spans live in memory and are written out when the run ends.  The
   simulated kernels run cooperatively on one domain, so plain mutable
   state is enough. *)

(* Process CPU time, in seconds, less the time spent in [Host] probes.
   Every world runs on one domain and waits on nothing real (the
   kernels' clock is virtual), so CPU time is the host cost of its work;
   unlike wall time it leaves out the stretches a shared host spends
   running other guests. *)
external now : unit -> (float[@unboxed]) = "perfbench_now_byte" "perfbench_now"
[@@noalloc]

let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  sid : int;
  parent : int;  (** 0 for a root span. *)
  name : string;
  start : float;  (** Seconds, monotonic. *)
  mutable stop : float;
}

let log : span list ref = ref []
let next_sid = ref 0
let enabled = ref false

let reset () =
  log := [];
  next_sid := 0

let spans () = List.rev !log

let none = { sid = 0; parent = 0; name = ""; start = 0.; stop = 0. }

let open_ ~parent name =
  if not !enabled then none
  else begin
    incr next_sid;
    let s = { sid = !next_sid; parent; name; start = now (); stop = nan } in
    log := s :: !log;
    s
  end

let close s = if s.sid > 0 then s.stop <- now ()

let with_span ~parent name f =
  let s = open_ ~parent name in
  Fun.protect ~finally:(fun () -> close s) (fun () -> f s.sid)

(* ------------------------------------------------------------------ *)
(* Linking server spans to client calls                                *)

(* The server decodes a fresh copy of each request, so a handle span
   finds the rpc attempt that carried it by structural equality among the
   attempts in flight.  Two identical requests in flight at once (two
   clients reading one key) are interchangeable: both rpc spans enclose
   the handle either way. *)
let inflight : (Bi_app.Protocol.req * int * bool ref) list ref = ref []

let claim req =
  match
    List.find_opt (fun (r, _, claimed) -> (not !claimed) && r = req) !inflight
  with
  | Some (_, sid, claimed) ->
      claimed := true;
      sid
  | None -> 0

(* The server-side span that store and journal calls nest under: the
   handle or recover span currently running.  netd serialises both under
   its data-path mutex (recover runs before it listens), so one slot
   suffices. *)
let server_parent = ref 0
let journal_bytes = ref 0

(* ------------------------------------------------------------------ *)
(* Wrapped layer records                                               *)

let endpoint ~current (ep : Bi_app.Resilient_client.endpoint) =
  {
    ep with
    rpc =
      (fun req ->
        with_span ~parent:!current "rpc" (fun sid ->
            let entry = (req, sid, ref false) in
            inflight := entry :: !inflight;
            Fun.protect
              ~finally:(fun () ->
                inflight := List.filter (fun e -> e != entry) !inflight)
              (fun () -> ep.rpc req)));
  }

let timed name f = with_span ~parent:!server_parent name (fun _ -> f ())

let store (s : Bi_app.Node_core.store) : Bi_app.Node_core.store =
  {
    load = (fun k -> timed "store.load" (fun () -> s.load k));
    save = (fun k v -> timed "store.save" (fun () -> s.save k v));
    remove = (fun k -> timed "store.remove" (fun () -> s.remove k));
    keys = (fun () -> timed "store.keys" s.keys);
  }

let sink (j : Bi_app.Journal.sink) : Bi_app.Journal.sink =
  {
    sink_read = (fun () -> timed "journal.load" j.sink_read);
    sink_append =
      (fun b ->
        if !enabled then journal_bytes := !journal_bytes + Bytes.length b;
        timed "journal.append" (fun () -> j.sink_append b));
    sink_replace = (fun b -> timed "journal.replace" (fun () -> j.sink_replace b));
  }

(* A server-side span rooted at the call it serves. *)
let server_span ~parent name f =
  with_span ~parent name (fun sid ->
      server_parent := sid;
      Fun.protect ~finally:(fun () -> server_parent := 0) f)

let handle core req =
  server_span ~parent:(claim req) "handle" (fun () ->
      Bi_app.Node_core.handle core req)

(* ------------------------------------------------------------------ *)
(* Aggregation and conservation                                        *)

let dur s = s.stop -. s.start

type summary = {
  by_name : (string, float list) Hashtbl.t;  (** Durations, seconds. *)
  self : (string, float list) Hashtbl.t;
      (** Duration minus the children's durations, for every span with
          children and every [op] and [handle]. *)
  children : (int, span list) Hashtbl.t;
  violations : string list;
}

let eps = 1e-9

let summarize spans =
  let by_name = Hashtbl.create 16 in
  let children = Hashtbl.create 1024 in
  let add tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      add by_name s.name (dur s);
      if s.parent > 0 then add children s.parent s)
    spans;
  let self = Hashtbl.create 16 in
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  List.iter
    (fun s ->
      if Float.is_nan s.stop then bad "span %d (%s) never closed" s.sid s.name
      else begin
        let kids = Option.value ~default:[] (Hashtbl.find_opt children s.sid) in
        (* Every child lies inside its parent, and siblings run one after
           another: that is what makes "self = span - children" a
           conserved split of the parent's time.  A restart is the one
           parent whose children overlap by design: the client's pings
           race the new daemon's recovery. *)
        List.iter
          (fun c ->
            if c.start < s.start -. eps || c.stop > s.stop +. eps then
              bad "span %d (%s) escapes parent %d (%s)" c.sid c.name s.sid
                s.name)
          kids;
        if s.name <> "restart" then
          ignore
            (List.fold_left
               (fun prev c ->
                 (match prev with
                 | Some p when c.start < p.stop -. eps ->
                     bad "siblings %d and %d under %d overlap" p.sid c.sid s.sid
                 | _ -> ());
                 Some c)
               None
               (List.sort (fun a b -> compare a.start b.start) kids));
        let kids_time = List.fold_left (fun a c -> a +. dur c) 0. kids in
        let self_time = dur s -. kids_time in
        if self_time < -.eps then bad "span %d (%s) has negative self time" s.sid s.name;
        if kids <> [] || s.name = "op" || s.name = "handle" then
          add self s.name self_time
      end)
    spans;
  { by_name; self; children; violations = List.rev !violations }

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let mean_us tbl name =
  1e6 *. mean (Option.value ~default:[] (Hashtbl.find_opt tbl name))

(* Children of [name]-spans whose own name is [child]. *)
let count_under sm ~parent ~child spans =
  List.fold_left
    (fun acc s ->
      if s.name <> parent then acc
      else
        acc
        + List.length
            (List.filter
               (fun c -> c.name = child)
               (Option.value ~default:[] (Hashtbl.find_opt sm.children s.sid))))
    0 spans

let write path spans =
  let oc = open_out path in
  let base = match spans with [] -> 0. | s :: _ -> s.start in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f}\n"
        s.sid s.parent s.name
        (1e6 *. (s.start -. base))
        (1e6 *. dur s))
    spans;
  close_out oc
