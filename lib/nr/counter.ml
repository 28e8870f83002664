type t = int ref
type op = Incr | Double | Read
type ret = int

let create () = ref 0

let apply t = function
  | Incr ->
      incr t;
      !t
  | Double ->
      t := !t * 2;
      !t
  | Read -> !t

include Seq_ds.Batch_of_apply (struct
  type nonrec t = t
  type nonrec op = op
  type nonrec ret = ret

  let apply = apply
end)

let is_read_only = function Read -> true | Incr | Double -> false

(* The checker backtracks, so it needs a pure spec, unlike the mutable
   structure NR replicates. *)
module Lin = Bi_core.Linearizability.Make (struct
  type state = int
  type nonrec op = op
  type nonrec ret = ret

  let step st = function
    | Incr -> (st + 1, st + 1)
    | Double -> (st * 2, st * 2)
    | Read -> (st, st)

  let equal_ret = Int.equal

  let pp_op ppf = function
    | Incr -> Format.pp_print_string ppf "incr"
    | Double -> Format.pp_print_string ppf "double"
    | Read -> Format.pp_print_string ppf "read"

  let pp_ret = Format.pp_print_int
end)

let two_domain_history ~calls ~op execute =
  let clock = Atomic.make 0 in
  let worker thread () =
    let local = ref [] in
    for i = 0 to calls - 1 do
      let op = op i in
      let inv = Atomic.fetch_and_add clock 1 in
      let ret = execute ~thread op in
      let res = Atomic.fetch_and_add clock 1 in
      local := { Lin.proc = thread; op; ret; inv; res } :: !local
    done;
    !local
  in
  let d1 = Domain.spawn (worker 0) in
  let d2 = Domain.spawn (worker 2) in
  let h1 = Domain.join d1 in
  h1 @ Domain.join d2
