type t = {
  ghz : float;
  local_dram : int;
  cacheline_transfer : int;
  cas_success : int;
  cas_retry : int;
  ipi : int;
  tlb_invlpg : int;
}

let default =
  {
    ghz = 2.5;
    local_dram = 200;
    cacheline_transfer = 200;
    cas_success = 60;
    cas_retry = 150;
    ipi = 2000;
    tlb_invlpg = 200;
  }

let cycles_to_us m cycles = float_of_int cycles /. (m.ghz *. 1000.)

let cas_acquire_cost m ~contenders =
  let others = max 0 (contenders - 1) in
  m.cacheline_transfer + m.cas_success + (others * m.cas_retry)

let shootdown_cost m ~cores =
  let others = max 0 (cores - 1) in
  if others = 0 then m.tlb_invlpg
  else m.ipi + (others * m.tlb_invlpg) + (others * (m.cacheline_transfer / 2))
