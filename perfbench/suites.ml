(* The verify workload: every suite `bin/verify` discharges, with
   the VC count it pins.  Building a suite's VC list is set-up;
   discharging it on one domain is the measured work. *)

let suites : (string * (unit -> Bi_core.Vc.t list) * int) list =
  [
    ("pt", Bi_pt.Pt_refinement.all, 220);
    ("ptx", Bi_pt.Pt_extensions.vcs, 24);
    ("ptb", Bi_pt.Pt_refinement.range_vcs, 41);
    ("pwc", Bi_pt.Pt_refinement.pwc_vcs, 18);
    ("nr", Bi_nr.Nr_check.vcs, 19);
    ("fs", Bi_fs.Fs_refinement.vcs, 28);
    ("net", Bi_net.Net_check.vcs, 17);
    ("abi", Bi_kernel.Sysabi.vcs, 5);
    ( "mc",
      (fun () ->
        Bi_core.Mc_check.vcs () @ Bi_ulib.Ulib_mc.vcs () @ Bi_kernel.Futex_mc.vcs ()
        @ Bi_nr.Nr_mc.vcs ()),
      39 );
    ("fi", Bi_fault.Fi_check.vcs, 52);
    ("rs", Bi_app.Rs_check.vcs, 59);
    ("sh", Bi_app.Sh_check.vcs, 41);
    ("hp", Bi_app.Hp_check.vcs, 45);
    ("wl", Bi_load.Wl_check.vcs, 54);
    ("nd", Bi_netd.Nd_check.vcs, 44);
    ("cr", Bi_app.Cr_check.vcs, 30);
  ]

(* The two VCs that dominate the total (crash exploration in [cr]). *)
let slow_vcs =
  [ "cr/recover/idempotent-every-boundary"; "cr/commit/checkpoint-atomic" ]

let build ?only () =
  List.filter_map
    (fun (name, vcs, pin) ->
      match only with
      | Some names when not (List.mem name names) -> None
      | _ -> Some (name, vcs (), pin))
    suites

(* Each VC is discharged alone and timed on the benchmark's clock,
   scaled by the host's speed: [(id, proved, seconds)] per suite. *)
let discharge built =
  List.map
    (fun (name, vcs, pin) ->
      let timed =
        List.map
          (fun vc ->
            let t0 = Spans.now () in
            let rep = Bi_core.Verifier.discharge ~jobs:1 [ vc ] in
            let t1 = Spans.now () in
            (vc.Bi_core.Vc.id, rep.Bi_core.Verifier.proved = 1, (t1 -. t0) *. Host.scale t0 t1))
          vcs
      in
      (name, pin, List.length vcs, timed))
    built
