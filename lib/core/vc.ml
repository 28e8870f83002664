type outcome =
  | Proved
  | Falsified of string
  | Timeout of float
  | Capped of string

type t = { id : string; category : string; check : unit -> outcome }

let make ~id ~category check = { id; category; check }

let outcome_of_bool b = if b then Proved else Falsified "property returned false"

let prop ~id ~category f = make ~id ~category (fun () -> outcome_of_bool (f ()))

let equal_by ~id ~category ~pp ~eq f =
  let check () =
    let got, expect = f () in
    if eq got expect then Proved
    else Falsified (Format.asprintf "got %a, expected %a" pp got pp expect)
  in
  make ~id ~category check

(* ------------------------------------------------------------------ *)
(* Per-VC time budget.

   A budget is a (deadline, budget) pair in domain-local storage: each
   domain of a parallel discharge runs its own VCs against its own
   deadline.  The quantifier
   combinators below poll [checkpoint] every few iterations, so a
   divergent or pathologically slow check aborts cooperatively at the
   next checkpoint instead of hanging its worker forever.  The poll reads
   the clock only when a budget is actually armed, so unbudgeted runs pay
   one DLS read per stride and nothing else. *)

exception Timed_out of float

let budget_key = Domain.DLS.new_key (fun () -> (infinity, 0.))

let with_budget ~budget_s f =
  let saved = Domain.DLS.get budget_key in
  Domain.DLS.set budget_key (Unix_time.now () +. budget_s, budget_s);
  Fun.protect ~finally:(fun () -> Domain.DLS.set budget_key saved) f

let checkpoint () =
  let deadline, budget = Domain.DLS.get budget_key in
  if deadline < infinity && Unix_time.now () > deadline then
    raise (Timed_out budget)

(* How many quantifier iterations run between clock polls. *)
let stride = 1024

let forall_range ~lo ~hi p () =
  let rec loop i =
    if i > hi then true
    else begin
      if (i - lo) land (stride - 1) = 0 then checkpoint ();
      p i && loop (i + 1)
    end
  in
  loop lo

let for_all_checked p xs =
  let i = ref 0 in
  List.for_all
    (fun x ->
      if !i land (stride - 1) = 0 then checkpoint ();
      incr i;
      p x)
    xs

let forall_list xs p () = for_all_checked p xs

(* Pair predicates tend to be heavier than single-element ones (they are
   typically whole refinement steps), so the inner loop polls on a
   tighter stride.  Polling only the outer loop would let a large [ys]
   defeat the budget entirely: |xs| outer iterations can stay below one
   stride while |xs|*|ys| predicate calls run unbounded. *)
let pair_stride = 64

let forall_pairs xs ys p () =
  let i = ref 0 in
  List.for_all
    (fun x ->
      List.for_all
        (fun y ->
          if !i land (pair_stride - 1) = 0 then checkpoint ();
          incr i;
          p x y)
        ys)
    xs

let forall_sampled ~id ~n gen p () =
  let g = Gen.of_string id in
  let rec loop i =
    if i >= n then true
    else begin
      if i land 15 = 0 then checkpoint ();
      p (gen g) && loop (i + 1)
    end
  in
  loop 0

let all checks () =
  List.for_all
    (fun c ->
      checkpoint ();
      c ())
    checks

let catch f =
  match f () with
  | outcome -> outcome
  | exception Timed_out budget -> Timeout budget
  | exception e -> Falsified ("exception: " ^ Printexc.to_string e)

let pp_outcome ppf = function
  | Proved -> Format.pp_print_string ppf "proved"
  | Falsified msg -> Format.fprintf ppf "falsified: %s" msg
  | Timeout budget ->
      Format.fprintf ppf "timeout after %gs budget" budget
  | Capped msg -> Format.fprintf ppf "capped: %s" msg
