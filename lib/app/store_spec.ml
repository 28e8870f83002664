type state = (string * string) list (* sorted assoc list *)

type op = Put of string * string | Get of string | Delete of string | List

type ret =
  | Done
  | Value of string option
  | Deleted of bool
  | Keys of string list
  | Rejected

let empty = []

let step st op =
  match op with
  | Put (key, value) ->
      if (not (Protocol.valid_key key))
         || String.length value > Protocol.max_value_size
      then (st, Rejected)
      else (List.sort compare ((key, value) :: List.remove_assoc key st), Done)
  | Get key ->
      if not (Protocol.valid_key key) then (st, Rejected)
      else (st, Value (List.assoc_opt key st))
  | Delete key ->
      if not (Protocol.valid_key key) then (st, Rejected)
      else begin
        let existed = List.mem_assoc key st in
        (List.remove_assoc key st, Deleted existed)
      end
  | List -> (st, Keys (List.map fst st))

let equal_ret (a : ret) (b : ret) = a = b

let pp_op ppf = function
  | Put (k, v) -> Format.fprintf ppf "put(%s,[%d])" k (String.length v)
  | Get k -> Format.fprintf ppf "get(%s)" k
  | Delete k -> Format.fprintf ppf "delete(%s)" k
  | List -> Format.pp_print_string ppf "list"

let pp_ret ppf = function
  | Done -> Format.pp_print_string ppf "done"
  | Value None -> Format.pp_print_string ppf "missing"
  | Value (Some v) -> Format.fprintf ppf "value[%d]" (String.length v)
  | Deleted b -> Format.fprintf ppf "deleted(%b)" b
  | Keys ks -> Format.fprintf ppf "keys[%d]" (List.length ks)
  | Rejected -> Format.pp_print_string ppf "rejected"

module Lin = Bi_core.Linearizability.Make (struct
  type nonrec state = state
  type nonrec op = op
  type nonrec ret = ret

  let step = step
  let equal_ret = equal_ret
  let pp_op = pp_op
  let pp_ret = pp_ret
end)

type recorder = { mutable calls : Lin.call list; mutable errors : string list }

let recorder () = { calls = []; errors = [] }

let record rc ~now proc op run =
  let inv = now () in
  match run () with
  | Ok ret ->
      let res = max (inv + 1) (now ()) in
      rc.calls <- { Lin.proc; op; ret; inv; res } :: rc.calls
  | Error msg -> rc.errors <- msg :: rc.errors

let linearizable rc = Lin.check ~init:empty (List.rev rc.calls)

let mixed_op ?(deletes = true) ~proc ~i ~key ~value () =
  match (i + (2 * proc)) mod 4 with
  | 0 | 1 -> Put (key, value)
  | 2 -> Get key
  | _ -> if deletes then Delete key else Get key

let perform ~put ~get ~delete ~pp_error op =
  let lift f = function
    | Ok x -> Ok (f x)
    | Error e -> Error (Format.asprintf "%a" pp_error e)
  in
  match op with
  | Put (key, value) -> lift (fun () -> Done) (put ~key ~value)
  | Get key -> lift (fun v -> Value v) (get ~key)
  | Delete key -> lift (fun b -> Deleted b) (delete ~key)
  | List -> invalid_arg "Store_spec.perform: List"
