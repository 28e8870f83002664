(* The verification driver: discharges every VC suite in the repository
   and prints a per-suite report — the closest thing this reproduction has
   to "running the proofs".

   Usage:
     verify              all suites
     verify pt fs        selected suites
     verify --jobs 4     discharge VCs over 4 domains (default: the
                         host's recommended domain count)
     verify --timeout 5  per-VC time budget in seconds
     verify --list       show suite names *)

(* Every suite's VC count is pinned in its row: the paper's headline pt
   suite must stay exactly 220, and no other suite may gain or lose a VC
   without this table saying so — silent drift (a VC dropped in a
   refactor, a loop bound halved) would otherwise look like a pass.  Two
   suites here carry VCs the benchmark's verify workload
   (perfbench/suites.ml) does not run, so their pins differ from its
   figures: [pwc] adds the 12 kernel address-space VCs ([Aspace_check],
   18 + 12) and [nd] adds [nd/perf/no-poll] (44 + 1). *)
let suites : (string * int * string * (unit -> Bi_core.Vc.t list)) list =
  [
    ("pt", 220, "page-table refinement (the paper's 220 VCs)", Bi_pt.Pt_refinement.all);
    ("ptx", 24, "page-table extensions (protect/mprotect)", Bi_pt.Pt_extensions.vcs);
    ("ptb", 41, "batched range ops refine the per-page fold", Bi_pt.Pt_refinement.range_vcs);
    ( "pwc",
      30,
      "paging-structure cache agrees with uncached walk",
      fun () -> Bi_pt.Pt_refinement.pwc_vcs () @ Bi_kernel.Aspace_check.vcs () );
    ("nr", 19, "node replication (log, rwlock, equivalence, linearizability)", Bi_nr.Nr_check.vcs);
    ("fs", 28, "filesystem refinement and crash safety", Bi_fs.Fs_refinement.vcs);
    ("net", 17, "network stack codecs and end-to-end behaviour", Bi_net.Net_check.vcs);
    ("abi", 5, "syscall ABI marshalling obligations", Bi_kernel.Sysabi.vcs);
    ( "mc",
      39,
      "model checker (DPOR): ulib, futex, NR + mutation self-checks",
      fun () ->
        Bi_core.Mc_check.vcs () @ Bi_ulib.Ulib_mc.vcs ()
        @ Bi_kernel.Futex_mc.vcs () @ Bi_nr.Nr_mc.vcs () );
    ( "fi",
      52,
      "fault injection: plans, faulty disk/link, crash exploration + mutations",
      Bi_fault.Fi_check.vcs );
    ( "rs",
      59,
      "resilient store: exactly-once, breaker, linearizability + mutations",
      Bi_app.Rs_check.vcs );
    ( "sh",
      41,
      "sharded store: routing, live migration, linearizability + mutations",
      Bi_app.Sh_check.vcs );
    ( "hp",
      45,
      "hot path: batch apply, zero-copy framing, buffer pool parity",
      Bi_app.Hp_check.vcs );
    ( "wl",
      54,
      "workload: admission control, shedding, fairness under 1e6 clients",
      Bi_load.Wl_check.vcs );
    ( "nd",
      45,
      "netd: concurrent daemon, e2e exactly-once/lin via syscall traces",
      fun () -> Bi_netd.Nd_check.vcs () @ Bi_netd.Nd_check.transport_vcs () );
    ( "cr",
      30,
      "crash recovery: journaled commit + recover at every crash point",
      Bi_app.Cr_check.vcs );
  ]

let run_suite ~jobs ?timeout_s verbose (name, pin, descr, vcs) =
  let vcs = vcs () in
  if List.length vcs <> pin then begin
    Format.printf "%-5s suite drifted: %d VCs, pinned count is %d@." name
      (List.length vcs) pin;
    exit 1
  end;
  let rep = Bi_core.Verifier.discharge ~jobs ?timeout_s vcs in
  Format.printf "%-5s %-48s %a@." name descr Bi_core.Verifier.pp_summary rep;
  if verbose then Bi_core.Verifier.pp_breakdown Format.std_formatter rep;
  if not (Bi_core.Verifier.all_proved rep) then begin
    Bi_core.Verifier.pp_failures Format.std_formatter rep;
    false
  end
  else true

let main list_only verbose jobs timeout_s names =
  if list_only then begin
    List.iter (fun (n, _, d, _) -> Format.printf "%-5s %s@." n d) suites;
    0
  end
  else begin
    let jobs = max 1 jobs in
    let selected =
      match names with
      | [] -> suites
      | _ ->
          List.filter (fun (n, _, _, _) -> List.mem n names) suites
    in
    match selected with
    | [] ->
        Format.eprintf "no such suite; try --list@.";
        2
    | _ ->
        let t0 = Unix.gettimeofday () in
        let ok =
          List.for_all (run_suite ~jobs ?timeout_s verbose) selected
        in
        (* Process cpu covers every domain, so it shows what parallel
           discharge costs in cpu beside what it saves in wall time. *)
        let cpu = Unix.times () in
        Format.printf
          "total wall time: %.2f s, process cpu %.2f s (%d domains per suite)@."
          (Unix.gettimeofday () -. t0)
          (cpu.Unix.tms_utime +. cpu.Unix.tms_stime)
          jobs;
        if ok then begin
          Format.printf "all verification conditions proved@.";
          0
        end
        else begin
          Format.printf "VERIFICATION FAILED@.";
          1
        end
  end

open Cmdliner

let list_flag =
  Arg.(value & flag & info [ "list" ] ~doc:"List available suites and exit.")

let verbose_flag =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Show per-category VC counts and times, and the slowest VCs.")

let jobs_flag =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Discharge each suite's VCs over $(docv) domains (default: the \
           host's recommended domain count). 1 runs sequentially.")

let timeout_flag =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-VC time budget; a check that exceeds it is reported as a \
           timeout instead of hanging the suite.")

let names_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"SUITE" ~doc:"Suites to run (default: all).")

let cmd =
  let doc = "discharge the verification-condition suites" in
  Cmd.v
    (Cmd.info "verify" ~doc)
    Term.(
      const main $ list_flag $ verbose_flag $ jobs_flag $ timeout_flag
      $ names_arg)

let () = exit (Cmd.eval' cmd)
