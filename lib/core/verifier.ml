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
    else begin
      (* The caller and [jobs - 1] spawned domains claim VC indices from
         one counter, and each result lands at its VC's index, so the
         report keeps the input order however the domains interleave.
         [run_one] never raises ([Vc.catch]), so every domain runs until
         the indices are gone and no domain outlives the call. *)
      let vcs = Array.of_list vcs in
      let n = Array.length vcs in
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let rec work () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (run_one ?timeout_s vcs.(i));
          work ()
        end
      in
      let helpers =
        List.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn work)
      in
      work ();
      List.iter Domain.join helpers;
      Array.to_list (Array.map Option.get results)
    end
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
    "%d verification conditions: %d proved, %d falsified%t; summed per-VC \
     %.3f s, wall %.3f s, max %.3f s%t"
    (List.length rep.results) rep.proved rep.falsified
    (fun ppf ->
      if rep.timed_out > 0 then
        Format.fprintf ppf ", %d timed out" rep.timed_out;
      if rep.capped > 0 then Format.fprintf ppf ", %d capped" rep.capped)
    rep.total_time_s rep.wall_time_s rep.max_time_s
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
