type result = { vc : Vc.t; time_s : float; outcome : Vc.outcome }

type report = {
  results : result list;
  total_time_s : float;
  wall_time_s : float;
  max_time_s : float;
  jobs : int;
  proved : int;
  falsified : int;
  timed_out : int;
  capped : int;
}

let run_one ?timeout_s (vc : Vc.t) =
  let t0 = Unix_time.now () in
  let outcome =
    match timeout_s with
    | None -> Vc.catch vc.Vc.check
    | Some budget_s ->
        Vc.catch (fun () -> Vc.with_budget ~budget_s vc.Vc.check)
  in
  let t1 = Unix_time.now () in
  { vc; time_s = t1 -. t0; outcome }

let discharge ?(jobs = 1) ?timeout_s vcs =
  let t0 = Unix_time.now () in
  let results =
    if jobs <= 1 then List.map (run_one ?timeout_s) vcs
    else
      (* The pool returns results in submission order, so the report is
         deterministic no matter how the domains interleave. *)
      Pool.with_pool ~domains:jobs (fun pool ->
          Pool.run pool (List.map (fun vc () -> run_one ?timeout_s vc) vcs))
  in
  let wall_time_s = Unix_time.now () -. t0 in
  let times = List.map (fun r -> r.time_s) results in
  let count p = List.length (List.filter p results) in
  let proved = count (fun r -> r.outcome = Vc.Proved) in
  let timed_out =
    count (fun r -> match r.outcome with Vc.Timeout _ -> true | _ -> false)
  in
  let capped =
    count (fun r -> match r.outcome with Vc.Capped _ -> true | _ -> false)
  in
  {
    results;
    total_time_s = Stats.sum times;
    wall_time_s;
    max_time_s = List.fold_left max 0. times;
    jobs = max 1 jobs;
    proved;
    falsified = List.length results - proved - timed_out - capped;
    timed_out;
    capped;
  }

let all_proved rep = rep.falsified = 0 && rep.timed_out = 0 && rep.capped = 0

let failures rep = List.filter (fun r -> r.outcome <> Vc.Proved) rep.results

let times rep = List.map (fun r -> r.time_s) rep.results

let cdf rep = Stats.cdf (times rep)

let speedup rep =
  if rep.wall_time_s > 0. then rep.total_time_s /. rep.wall_time_s else 1.

let by_category rep =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  let add r =
    let cat = r.vc.Vc.category in
    if not (Hashtbl.mem tbl cat) then begin
      order := cat :: !order;
      Hashtbl.add tbl cat []
    end;
    Hashtbl.replace tbl cat (r :: Hashtbl.find tbl cat)
  in
  List.iter add rep.results;
  List.rev_map (fun cat -> (cat, List.rev (Hashtbl.find tbl cat))) !order

let pp_summary ppf rep =
  let slowest = List.find_opt (fun r -> r.time_s = rep.max_time_s) rep.results in
  Format.fprintf ppf
    "%d verification conditions: %d proved, %d falsified%t; cpu %.3f s, \
     wall %.3f s%t, max %.3f s%t"
    (List.length rep.results) rep.proved rep.falsified
    (fun ppf ->
      if rep.timed_out > 0 then
        Format.fprintf ppf ", %d timed out" rep.timed_out;
      if rep.capped > 0 then Format.fprintf ppf ", %d capped" rep.capped)
    rep.total_time_s rep.wall_time_s
    (fun ppf ->
      if rep.jobs > 1 then
        Format.fprintf ppf " (%d domains, %.1fx speedup)" rep.jobs
          (speedup rep))
    rep.max_time_s
    (fun ppf ->
      Option.iter (fun r -> Format.fprintf ppf " (%s)" r.vc.Vc.id) slowest)

let pp_breakdown ppf rep =
  List.iter
    (fun (cat, results) ->
      Format.fprintf ppf "      %-30s %3d VCs %8.3f s@." cat (List.length results)
        (Stats.sum (List.map (fun r -> r.time_s) results)))
    (by_category rep);
  let slowest =
    List.stable_sort (fun a b -> Float.compare b.time_s a.time_s) rep.results
  in
  List.iteri
    (fun i r ->
      if i < 5 then
        Format.fprintf ppf "      %-8s %8.3f s  %s@."
          (if i = 0 then "slowest" else "")
          r.time_s r.vc.Vc.id)
    slowest

let pp_failures ppf rep =
  let pp_one r =
    match r.outcome with
    | Vc.Proved -> ()
    | Vc.Falsified msg ->
        Format.fprintf ppf "FALSIFIED %s [%s]: %s@." r.vc.Vc.id r.vc.Vc.category
          msg
    | Vc.Timeout budget ->
        Format.fprintf ppf "TIMEOUT %s [%s]: exceeded per-VC budget of %gs@."
          r.vc.Vc.id r.vc.Vc.category budget
    | Vc.Capped msg ->
        Format.fprintf ppf "CAPPED %s [%s]: %s@." r.vc.Vc.id r.vc.Vc.category
          msg
  in
  List.iter pp_one rep.results
