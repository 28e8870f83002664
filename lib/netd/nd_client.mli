(** Kernel-TCP transport driving {!Bi_app.Resilient_client} against a
    live netd: each attempt sends on the current connection and parks in
    [tcp_recv] (bounded by [attempt_ticks] of virtual time) for a framed
    response; timeouts and peer-closes drop the connection so every retry
    starts on a fresh one — a late response to a timed-out attempt can
    never be mispaired with a newer request.  All timing goes through kernel
    virtual time, so schedules are replayable. *)

type net
(** The transport state: connection + receive buffer. *)

val make :
  ?port:int ->
  ?attempt_ticks:int ->
  Bi_kernel.Usys.t ->
  ip:int32 ->
  unit ->
  net
(** Lazy-connecting transport to [ip:port] (default
    {!Bi_app.Storage_node.port}; [attempt_ticks] defaults to 400). *)

val rpc : net -> Bi_app.Protocol.req -> (Bi_app.Protocol.resp, string) result
(** One attempt, as {!Bi_app.Resilient_client.endpoint} expects.  Also
    usable raw, e.g. to send the final [Shutdown]. *)

val endpoint : ?name:string -> net -> Bi_app.Resilient_client.endpoint
val clock : Bi_kernel.Usys.t -> Bi_app.Resilient_client.clock

val create :
  ?config:Bi_app.Resilient_client.config ->
  ?port:int ->
  ?attempt_ticks:int ->
  client:int ->
  Bi_kernel.Usys.t ->
  ip:int32 ->
  net * Bi_app.Resilient_client.t
(** A resilient client over a fresh transport.  [client] must be
    globally unique per logical client (it keys the dup table). *)

val close : net -> unit
