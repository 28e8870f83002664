(* Kernel-TCP transport for [Resilient_client] against netd.

   One attempt = send the request on the current connection and wait,
   parked in [tcp_recv], for a framed response, bounded by
   [attempt_ticks] of virtual time.  On timeout or peer-close the
   connection is DROPPED before reporting the transport error: the retry
   then starts on a fresh connection, so a late response to a timed-out
   attempt can never desynchronize the request/response pairing
   (responses are not self-identifying at this layer — the dup table,
   keyed by txn, is what makes the retry safe).

   The clock is kernel virtual time ([Usys.now]/[Usys.sleep]), so every
   backoff decision the resilient client makes is replayable. *)

module U = Bi_kernel.Usys
module P = Bi_app.Protocol
module RC = Bi_app.Resilient_client

type net = {
  sys : U.t;
  ip : int32;
  port : int;
  attempt_ticks : int;
  mutable conn : int option;
  mutable buf : bytes;
}

let make ?(port = Bi_app.Storage_node.port) ?(attempt_ticks = 400) sys ~ip () =
  { sys; ip; port; attempt_ticks; conn = None; buf = Bytes.empty }

let drop t =
  (match t.conn with
  | Some conn -> ignore (U.tcp_close t.sys ~conn)
  | None -> ());
  t.conn <- None;
  t.buf <- Bytes.empty

let ensure_conn t =
  match t.conn with
  | Some conn -> Ok conn
  | None -> (
      match U.tcp_connect t.sys ~ip:t.ip ~port:t.port with
      | Ok conn ->
          t.conn <- Some conn;
          t.buf <- Bytes.empty;
          Ok conn
      | Error e ->
          Error (Format.asprintf "connect: %a" Bi_kernel.Sysabi.pp_err e))

let rpc t req =
  match ensure_conn t with
  | Error _ as e -> e
  | Ok conn -> (
      match U.tcp_send t.sys ~conn (Bytes.to_string (P.encode_req req)) with
      | Error e ->
          drop t;
          Error (Format.asprintf "send: %a" Bi_kernel.Sysabi.pp_err e)
      | Ok _ ->
          (* The first wait reuses the reading the deadline is taken
             from; a later one reads the clock only when no buffered
             response answers it. *)
          let start = U.now t.sys in
          let deadline = Int64.add start (Int64.of_int t.attempt_ticks) in
          let rec await now =
            match P.decode_resp t.buf ~off:0 with
            | Some (resp, consumed) ->
                t.buf <-
                  Bytes.sub t.buf consumed (Bytes.length t.buf - consumed);
                Ok resp
            | None ->
                let now =
                  match now with Some now -> now | None -> U.now t.sys
                in
                if now > deadline then begin
                  drop t;
                  Error "attempt timed out"
                end
                else begin
                  (* Park until data arrives, or until the first tick past
                     the deadline, when the check above times out. *)
                  let timeout = Int64.to_int (Int64.sub deadline now) + 1 in
                  (match U.tcp_recv t.sys ~timeout conn with
                  | Ok "" -> drop t
                  | Ok chunk ->
                      t.buf <- Bytes.cat t.buf (Bytes.of_string chunk)
                  | Error Bi_kernel.Sysabi.E_again -> ()
                  | Error _ -> drop t);
                  match t.conn with
                  | None -> Error "peer closed mid-attempt"
                  | Some _ -> await None
                end
          in
          await (Some start))

let endpoint ?(name = "netd") t = { RC.name; rpc = (fun req -> rpc t req) }

let clock sys =
  {
    RC.now = (fun () -> Int64.to_int (U.now sys));
    sleep = (fun ticks -> if ticks > 0 then U.sleep sys ticks);
  }

let create ?config ?port ?attempt_ticks ~client sys ~ip =
  let net = make ?port ?attempt_ticks sys ~ip () in
  let rc = RC.create ?config ~client (clock sys) (endpoint net) in
  (net, rc)

let close t = drop t
