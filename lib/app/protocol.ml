module Serde = Bi_ulib.Serde

type txn = { client : int; seq : int }

type err =
  | Bad_key
  | Too_large
  | Bad_crc
  | No_crc
  | Integrity
  | Read_only
  | Wrong_shard of int
  | Io of string
  | Overloaded

type health = Serving | Degraded

type req =
  | Put of { key : string; value : string; crc : int32; txn : txn option }
  | Get of string
  | Delete of { key : string; txn : txn option }
  | List
  | Ping
  | Shutdown

type resp =
  | Done
  | Value of { value : string; crc : int32 }
  | Missing
  | Listing of string list
  | Pong of { health : health; epoch : int }
  | Err of err

let pp_err ppf = function
  | Bad_key -> Format.pp_print_string ppf "invalid key"
  | Too_large -> Format.pp_print_string ppf "value too large"
  | Bad_crc -> Format.pp_print_string ppf "checksum mismatch on write"
  | No_crc -> Format.pp_print_string ppf "missing checksum"
  | Integrity -> Format.pp_print_string ppf "integrity violation detected"
  | Read_only -> Format.pp_print_string ppf "node degraded: read-only"
  | Wrong_shard v -> Format.fprintf ppf "wrong shard (map version %d)" v
  | Io m -> Format.fprintf ppf "io: %s" m
  | Overloaded -> Format.pp_print_string ppf "overloaded: request shed, retry later"

let pp_health ppf = function
  | Serving -> Format.pp_print_string ppf "serving"
  | Degraded -> Format.pp_print_string ppf "degraded"

let pp_txn ppf { client; seq } = Format.fprintf ppf "%d.%d" client seq

(* [Wrong_shard] is not transient-retryable: resending the same bytes to
   the same node cannot help.  The shard router handles it specially by
   refreshing its map and re-routing (same txn, different node). *)
(* [Overloaded] IS transient-retryable: the node shed the request before
   touching state (see {!Node_core.Queued}), so resending the same bytes
   under the same txn after backoff is safe and eventually succeeds once
   the queue drains. *)
let strip_txn = function
  | Put p -> Put { p with txn = None }
  | Delete d -> Delete { d with txn = None }
  | req -> req

let retryable = function
  | Bad_crc | Overloaded -> true
  | Bad_key | Too_large | No_crc | Integrity | Read_only | Wrong_shard _
  | Io _ ->
      false

let max_value_size = 60_000

(* CRC-32 (IEEE), table-driven.  The table is built eagerly: forcing a
   shared lazy value from two domains at once raises. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then
          c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

let crc_step c code =
  let idx =
    Int32.to_int (Int32.logand (Int32.logxor c (Int32.of_int code)) 0xFFl)
  in
  Int32.logxor crc_table.(idx) (Int32.shift_right_logical c 8)

let crc_init = 0xFFFFFFFFl
let crc_finish c = Int32.logxor c 0xFFFFFFFFl

let crc32 s =
  let c = ref crc_init in
  String.iter (fun ch -> c := crc_step !c (Char.code ch)) s;
  crc_finish !c

(* CRC folds byte-at-a-time, so it strides slice lists for free. *)
let crc32_iov iov =
  let c = ref crc_init in
  Bi_net.Pkt.Iov.iter_bytes iov (fun b -> c := crc_step !c b);
  crc_finish !c

let valid_key k =
  let n = String.length k in
  n >= 1 && n <= 24
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' || c = '-')
       k

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)

let txn_codec : txn option Serde.t =
  let open Serde in
  map
    (Option.map (fun (client, seq) -> { client; seq }))
    (Option.map (fun { client; seq } -> (client, seq)))
    (option (pair varint varint))

let req_codec : req Serde.t =
  let open Serde in
  let inj (tag, (a, (b, (c, t)))) =
    match tag with
    | 0 -> Put { key = a; value = b; crc = c; txn = t }
    | 1 -> Get a
    | 2 -> Delete { key = a; txn = t }
    | 3 -> List
    | 4 -> Ping
    | _ -> Shutdown
  in
  let prj = function
    | Put { key; value; crc; txn } -> (0, (key, (value, (crc, txn))))
    | Get k -> (1, (k, ("", (0l, None))))
    | Delete { key; txn } -> (2, (key, ("", (0l, txn))))
    | List -> (3, ("", ("", (0l, None))))
    | Ping -> (4, ("", ("", (0l, None))))
    | Shutdown -> (5, ("", ("", (0l, None))))
  in
  map inj prj (pair varint (pair string (pair string (pair u32 txn_codec))))

let err_tag = function
  | Bad_key -> 0
  | Too_large -> 1
  | Bad_crc -> 2
  | No_crc -> 3
  | Integrity -> 4
  | Read_only -> 5
  | Io _ -> 6
  | Wrong_shard _ -> 7
  | Overloaded -> 8

let err_of_tag tag arg detail =
  match tag with
  | 0 -> Bad_key
  | 1 -> Too_large
  | 2 -> Bad_crc
  | 3 -> No_crc
  | 4 -> Integrity
  | 5 -> Read_only
  | 7 -> Wrong_shard arg
  | 8 -> Overloaded
  | _ -> Io detail

let health_tag = function Serving -> 0 | Degraded -> 1
let health_of_tag = function 0 -> Serving | _ -> Degraded

let resp_codec : resp Serde.t =
  let open Serde in
  let inj (tag, (a, (c, (ns, ((h, epoch), (et, (arg, detail))))))) =
    match tag with
    | 0 -> Done
    | 1 -> Value { value = a; crc = c }
    | 2 -> Missing
    | 3 -> Listing ns
    | 4 -> Pong { health = health_of_tag h; epoch }
    | _ -> Err (err_of_tag et arg detail)
  in
  let zero = ((0, 0), (0, (0, ""))) in
  let prj = function
    | Done -> (0, ("", (0l, ([], zero))))
    | Value { value; crc } -> (1, (value, (crc, ([], zero))))
    | Missing -> (2, ("", (0l, ([], zero))))
    | Listing ns -> (3, ("", (0l, (ns, zero))))
    | Pong { health; epoch } ->
        (4, ("", (0l, ([], ((health_tag health, epoch), (0, (0, "")))))))
    | Err e ->
        let detail = match e with Io m -> m | _ -> "" in
        let arg = match e with Wrong_shard v -> v | _ -> 0 in
        (5, ("", (0l, ([], ((0, 0), (err_tag e, (arg, detail)))))))
  in
  map inj prj
    (pair varint
       (pair string
          (pair u32
             (pair (list string)
                (pair (pair varint varint) (pair varint (pair varint string)))))))

(* Frames: varint body length + body bytes. *)
let frame body =
  let b = Buffer.create (Bytes.length body + 4) in
  Buffer.add_bytes b (Serde.encode Serde.varint (Bytes.length body));
  Buffer.add_bytes b body;
  Buffer.to_bytes b

let deframe buf ~off decode_body =
  match Serde.decode_prefix Serde.varint buf ~off with
  | None -> None
  | Some (len, body_off) ->
      if len < 0 || body_off + len > Bytes.length buf then None
      else begin
        let body = Bytes.sub buf body_off len in
        match decode_body body with
        | Some v -> Some (v, body_off + len)
        | None -> None
      end

(* Vectored framing: the varint length header is its own slice, the body
   is referenced, not copied.  Materializes to exactly [frame body]. *)
let frame_iov body =
  let hdr = Serde.encode Serde.varint (Bi_net.Pkt.Iov.length body) in
  Bi_net.Pkt.Iov.slice hdr :: body

let encode_req r = frame (Serde.encode req_codec r)
let decode_req buf ~off = deframe buf ~off (Serde.decode req_codec)
let encode_resp r = frame (Serde.encode resp_codec r)
let decode_resp buf ~off = deframe buf ~off (Serde.decode resp_codec)

let encode_req_iov r =
  frame_iov (Bi_net.Pkt.Iov.of_bytes (Serde.encode req_codec r))

let encode_resp_iov r =
  frame_iov (Bi_net.Pkt.Iov.of_bytes (Serde.encode resp_codec r))

(* ------------------------------------------------------------------ *)
(* Transport envelope                                                  *)

(* 8-byte header — 4-byte request id, 4-byte CRC-32 of the whole
   envelope computed with the CRC field zeroed — followed by the body.
   This is the framing the resilient-store and shard worlds put on every
   channel message so corrupted deliveries are dropped, not decoded. *)

let seal ~id body =
  let n = Bytes.length body in
  let f = Bytes.create (8 + n) in
  Bytes.set_int32_be f 0 (Int32.of_int id);
  Bytes.set_int32_be f 4 0l;
  Bytes.blit body 0 f 8 n;
  Bytes.set_int32_be f 4 (crc32 (Bytes.to_string f));
  f

(* Zero-copy [seal]: the header is one slice and the CRC strides the
   slices; the body is never moved.  Materializes to [seal]'s bytes. *)
let seal_iov ~id body =
  let h = Bytes.create 8 in
  Bytes.set_int32_be h 0 (Int32.of_int id);
  Bytes.set_int32_be h 4 0l;
  let iov = Bi_net.Pkt.Iov.slice h :: body in
  Bytes.set_int32_be h 4 (crc32_iov iov);
  iov

let unseal f =
  let n = Bytes.length f in
  if n < 8 then None
  else begin
    let crc = Bytes.get_int32_be f 4 in
    (* CRC with the checksum field zeroed, without copying the frame. *)
    let c = ref crc_init in
    for i = 0 to n - 1 do
      let b = if i >= 4 && i < 8 then 0 else Char.code (Bytes.get f i) in
      c := crc_step !c b
    done;
    if crc_finish !c <> crc then None
    else Some (Int32.to_int (Bytes.get_int32_be f 0), Bytes.sub f 8 (n - 8))
  end
