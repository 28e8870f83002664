module P = Protocol

type endpoint = {
  name : string;
  rpc : P.req -> (P.resp, string) result;
}

type clock = { now : unit -> int; sleep : int -> unit }

type config = {
  max_attempts : int;
  backoff_base : int;
  backoff_cap : int;
  jitter_pm : int;
  breaker_threshold : int;
  breaker_cooldown : int;
  deadline : int;
  seed : int;
}

let default_config =
  {
    max_attempts = 5;
    backoff_base = 2;
    backoff_cap = 16;
    jitter_pm = 1;
    breaker_threshold = 4;
    breaker_cooldown = 32;
    deadline = 200;
    seed = 1;
  }

(* splitmix64-style mixer: the jitter must be a pure function of
   (seed, attempt) so a schedule replays exactly under the same seed. *)
let mix seed k =
  let open Int64 in
  let z = add (of_int seed) (mul (of_int (k + 1)) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (logand (logxor z (shift_right_logical z 31)) 0x3FFFFFFFL)

let backoff cfg ~attempt =
  let shift = min (attempt - 1) 30 in
  let base = min cfg.backoff_cap (cfg.backoff_base lsl shift) in
  let jitter =
    if cfg.jitter_pm <= 0 then 0
    else (mix cfg.seed attempt mod ((2 * cfg.jitter_pm) + 1)) - cfg.jitter_pm
  in
  max 0 (base + jitter)

type breaker = Closed | Open_until of int | Half_open

type error =
  | Invalid_key
  | Breaker_open
  | Deadline
  | Exhausted of string
  | Remote of P.err

let pp_error ppf = function
  | Invalid_key -> Format.pp_print_string ppf "invalid key (rejected locally)"
  | Breaker_open -> Format.pp_print_string ppf "breaker open"
  | Deadline -> Format.pp_print_string ppf "deadline exceeded"
  | Exhausted m -> Format.fprintf ppf "retries exhausted: %s" m
  | Remote e -> Format.fprintf ppf "remote: %a" P.pp_err e

type stats = {
  ops : int;
  attempts : int;
  retries : int;
  breaker_opens : int;
  breaker_closes : int;
  sheds : int;
}

type t = {
  ep : endpoint;
  clock : clock;
  cfg : config;
  client : int;
  mutable seq : int;
  mutable breaker : breaker;
  mutable failures : int;  (* consecutive, while Closed *)
  mutable probe_inflight : bool;
  mutable s_ops : int;
  mutable s_attempts : int;
  mutable s_retries : int;
  mutable s_opens : int;
  mutable s_closes : int;
  mutable s_sheds : int;
}

let create ?(config = default_config) ~client clock ep =
  {
    ep;
    clock;
    cfg = config;
    client;
    seq = 0;
    breaker = Closed;
    failures = 0;
    probe_inflight = false;
    s_ops = 0;
    s_attempts = 0;
    s_retries = 0;
    s_opens = 0;
    s_closes = 0;
    s_sheds = 0;
  }

let next_txn t =
  t.seq <- t.seq + 1;
  { P.client = t.client; seq = t.seq }

let breaker_state t = t.breaker

let stats t =
  {
    ops = t.s_ops;
    attempts = t.s_attempts;
    retries = t.s_retries;
    breaker_opens = t.s_opens;
    breaker_closes = t.s_closes;
    sheds = t.s_sheds;
  }

let total_stats clients =
  Array.fold_left
    (fun acc c ->
      let s = stats c in
      {
        ops = acc.ops + s.ops;
        attempts = acc.attempts + s.attempts;
        retries = acc.retries + s.retries;
        breaker_opens = acc.breaker_opens + s.breaker_opens;
        breaker_closes = acc.breaker_closes + s.breaker_closes;
        sheds = acc.sheds + s.sheds;
      })
    { ops = 0; attempts = 0; retries = 0; breaker_opens = 0;
      breaker_closes = 0; sheds = 0 }
    clients

(* Breaker admission.  Half-open admits exactly one probe: a second call
   arriving while the probe is in flight is rejected, not queued. *)
let admit t =
  match t.breaker with
  | Closed -> true
  | Open_until u ->
      if t.clock.now () >= u then (
        t.breaker <- Half_open;
        t.probe_inflight <- true;
        true)
      else false
  | Half_open ->
      if t.probe_inflight then false
      else (
        t.probe_inflight <- true;
        true)

let open_breaker t =
  t.breaker <- Open_until (t.clock.now () + t.cfg.breaker_cooldown);
  t.s_opens <- t.s_opens + 1

let record_success t =
  (match t.breaker with
  | Half_open ->
      t.probe_inflight <- false;
      t.breaker <- Closed;
      t.s_closes <- t.s_closes + 1
  | _ -> ());
  t.failures <- 0

let record_failure t =
  match t.breaker with
  | Half_open ->
      t.probe_inflight <- false;
      open_breaker t
  | Closed ->
      t.failures <- t.failures + 1;
      if t.failures >= t.cfg.breaker_threshold then (
        t.failures <- 0;
        open_breaker t)
  | Open_until _ -> ()

(* The retry loop.  [interp] classifies each response as a success, a
   definitive rejection, or a transient failure worth another attempt. *)
let run t req interp =
  t.s_ops <- t.s_ops + 1;
  (* The first attempt reuses the reading [deadline_at] is taken from:
     nothing runs between the two, so a second read would see the same
     tick. *)
  let start = t.clock.now () in
  let deadline_at = start + t.cfg.deadline in
  let rec go ~now attempt =
    if now >= deadline_at then Error Deadline
    else if not (admit t) then Error Breaker_open
    else (
      t.s_attempts <- t.s_attempts + 1;
      if attempt > 1 then t.s_retries <- t.s_retries + 1;
      match t.ep.rpc req with
      | Error msg ->
          record_failure t;
          next attempt msg
      | Ok resp -> (
          (match resp with
          | P.Err P.Overloaded -> t.s_sheds <- t.s_sheds + 1
          | _ -> ());
          match interp resp with
          | `Ok v ->
              record_success t;
              Ok v
          | `Definitive e ->
              (* The endpoint answered: it is healthy, even if it said no. *)
              record_success t;
              Error (Remote e)
          | `Transient msg ->
              record_failure t;
              next attempt msg))
  and next attempt msg =
    if attempt >= t.cfg.max_attempts then Error (Exhausted msg)
    else (
      (* Clamp the backoff to the remaining deadline budget: sleeping past
         the deadline only delays the [Deadline] verdict the next [go]
         will reach anyway. *)
      let remaining = deadline_at - t.clock.now () in
      if remaining <= 0 then Error Deadline
      else (
        t.clock.sleep (min (backoff t.cfg ~attempt) remaining);
        go ~now:(t.clock.now ()) (attempt + 1)))
  in
  go ~now:start 1

let classify_err e k =
  if P.retryable e then `Transient (Format.asprintf "%a" P.pp_err e)
  else k e

let interp_mutation = function
  | P.Done -> `Ok `Done
  | P.Missing -> `Ok `Missing
  | P.Err e -> classify_err e (fun e -> `Definitive e)
  | _ -> `Transient "unexpected response"

let guard_key key k = if P.valid_key key then k () else Error Invalid_key

let put_txn t ~txn ~key ~value =
  guard_key key (fun () ->
      match
        run t
          (P.Put { key; value; crc = P.crc32 value; txn = Some txn })
          interp_mutation
      with
      | Ok _ -> Ok ()
      | Error e -> Error e)

let put t ~key ~value =
  guard_key key (fun () -> put_txn t ~txn:(next_txn t) ~key ~value)

let delete_txn t ~txn ~key =
  guard_key key (fun () ->
      match run t (P.Delete { key; txn = Some txn }) interp_mutation with
      | Ok `Done -> Ok true
      | Ok `Missing -> Ok false
      | Error e -> Error e)

let delete t ~key =
  guard_key key (fun () -> delete_txn t ~txn:(next_txn t) ~key)

let get t ~key =
  guard_key key (fun () ->
      run t (P.Get key) (function
        | P.Value { value; crc } ->
            (* A checksum mismatch here means the wire corrupted the
               response — transient, the stored value may be fine. *)
            if P.crc32 value = crc then `Ok (Some value)
            else `Transient "corrupt value on receipt"
        | P.Missing -> `Ok None
        | P.Err e -> classify_err e (fun e -> `Definitive e)
        | _ -> `Transient "unexpected response"))

let list t =
  run t P.List (function
    | P.Listing keys -> `Ok keys
    | P.Err e -> classify_err e (fun e -> `Definitive e)
    | _ -> `Transient "unexpected response")

let ping t =
  run t P.Ping (function
    | P.Pong { health; epoch } -> `Ok (health, epoch)
    | P.Err e -> classify_err e (fun e -> `Definitive e)
    | _ -> `Transient "unexpected response")
