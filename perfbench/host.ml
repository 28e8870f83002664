(* The host's speed.

   The host is shared, and the CPU time of fixed work drifts on it by up
   to a factor of two within seconds, as other guests load the same
   cores.  So every [period_s] a timer runs a fixed probe: 512-byte
   sector copies, string-keyed hash-table traffic and short-lived lists,
   the shapes of work the storage path does, written with the standard
   library alone so that no change to the repository moves it.  (A probe
   that also missed the caches tracked the storage path's drift worse.)
   The probe's own time is left out of [Spans.now].  A figure measured
   over an interval is scaled by [reference_s] over the median probe time
   in that interval, so it reads as on a host where one probe takes
   [reference_s], whatever the host's speed was during the run. *)

external thread_cpu : unit -> (float[@unboxed])
  = "perfbench_thread_cpu_byte" "perfbench_thread_cpu"
[@@noalloc]

external add_pause : (float[@unboxed]) -> unit
  = "perfbench_add_pause_byte" "perfbench_add_pause"
[@@noalloc]

let period_s = 0.01
let reference_s = 0.4e-3

let sectors = Array.init 4096 (fun i -> Bytes.make 512 (Char.chr (i land 255)))
let table : (string, int) Hashtbl.t = Hashtbl.create 8192
let state = ref 1

let work () =
  let x = ref !state in
  for _ = 1 to 500 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land 4095 in
    let b = Bytes.copy sectors.(i) in
    Bytes.set b (!x land 511) 'p';
    sectors.(i) <- b;
    let k = string_of_int (!x land 8191) in
    Hashtbl.replace table k (i + Option.value ~default:0 (Hashtbl.find_opt table k));
    ignore (List.rev (List.init 16 (fun j -> i + j)))
  done;
  state := !x

(* (when, on [Spans.now]; probe seconds), newest first. *)
let probes : (float * float) list ref = ref []
let busy = Atomic.make false

let probe () =
  if Atomic.compare_and_set busy false true then begin
    let at = Spans.now () in
    let t0 = thread_cpu () in
    work ();
    let d = thread_cpu () -. t0 in
    add_pause d;
    probes := (at, d) :: !probes;
    Atomic.set busy false
  end

(* A wall-clock timer: with a process CPU-time timer armed, the kernel
   updates the process CPU clock only at scheduler ticks. *)
let start () =
  for _ = 1 to 20 do
    work ()
  done;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> probe ()));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = period_s; it_value = period_s })

let stop () =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
  Sys.set_signal Sys.sigalrm Sys.Signal_ignore

let median l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then nan else if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The factor for a figure measured over [a, b]: from the probes within
   [margin_s] of it, so that even a short figure gets about ten, or else
   from the probe nearest to it.  (Widening every interval to 0.25 s
   instead doubled verify's spread: the host's speed moves faster.) *)
let margin_s = 0.05

let scale a b =
  match List.filter (fun (t, _) -> t >= a -. margin_s && t <= b +. margin_s) !probes with
  | _ :: _ as near -> reference_s /. median (List.map snd near)
  | [] -> (
      let dist (t, _) = if t < a then a -. t else t -. b in
      match !probes with
      | [] -> 1.
      | p :: rest ->
          let near = List.fold_left (fun q r -> if dist r < dist q then r else q) p rest in
          reference_s /. snd near)
