(* The PA-NFS protocol (paper §6.1): an NFSv4-flavoured operation set
   extended with the six DPAPI operations.

   Data-carrying provenance writes use OP_PASSWRITE.  When the combined
   data and provenance exceed the client block size (64 KB), the client
   encapsulates the write in a transaction: OP_BEGINTXN obtains a
   transaction id, a series of OP_PASSPROV operations carries the
   provenance in 64 KB chunks, and the final OP_PASSWRITE carries the data
   together with a single ENDTXN record.  The transaction id is what lets
   the server's Waldo identify orphaned provenance after a client crash.

   The codecs below define the wire format, but the simulated transport
   never runs them: a call crosses the link as the immutable value the
   client built, charged at the length its encoding would have, which
   the arithmetic twins [call_size]/[resp_size] compute without
   encoding.  The codecs stay as the format's definition and as the
   oracle the twins are tested against.  A duplicated or retransmitted
   message redelivers the same value.  Requests travel in a call
   envelope carrying the client id and a per-client sequence number —
   the key of the server's NFSv4-style duplicate-request cache. *)

module Dpapi = Pass_core.Dpapi
module Pnode = Pass_core.Pnode

(* One provenance write riding in an OP_PASSBATCH envelope: the same
   fields as a non-transactional OP_PASSWRITE. *)
type batch_item = {
  bi_pnode : Pnode.t;
  bi_off : int;
  bi_data : string option;
  bi_bundle : Dpapi.bundle;
}

type req =
  | Lookup of { dir : Vfs.ino; name : string }
  | Create of { dir : Vfs.ino; name : string; kind : Vfs.kind }
  | Remove of { dir : Vfs.ino; name : string }
  | Rename of { src_dir : Vfs.ino; src_name : string; dst_dir : Vfs.ino; dst_name : string }
  | Getattr of { ino : Vfs.ino }
  | Readdir of { ino : Vfs.ino }
  | Read of { ino : Vfs.ino; off : int; len : int }
  | Write of { ino : Vfs.ino; off : int; data : string }
  | Truncate of { ino : Vfs.ino; size : int }
  | Commit of { ino : Vfs.ino }
  | Op_passread of { pnode : Pnode.t; off : int; len : int }
  | Op_passwrite of {
      pnode : Pnode.t;
      off : int;
      data : string option;
      bundle : Dpapi.bundle;
      txn : int option; (* set when this write terminates a transaction *)
    }
  | Op_begintxn
  | Op_passprov of { txn : int; chunk : Dpapi.bundle }
  | Op_passmkobj
  | Op_passreviveobj of { pnode : Pnode.t; version : int }
  | Op_passsync of { pnode : Pnode.t }
  | Op_pnode of { ino : Vfs.ino } (* pnode lookup for the client handle cache *)
  | Op_passbatch of { writes : batch_item list }
      (* several independent provenance writes piggybacked into one call
         envelope; the server applies them in order and the whole batch
         shares one duplicate-request-cache entry, so a replayed envelope
         replays the cached replies instead of re-applying any item *)

type resp =
  | R_err of Vfs.errno
  | R_ino of Vfs.ino
  | R_ok
  | R_attr of Vfs.stat
  | R_names of string list
  | R_data of string
  | R_passread of { data : string; pnode : Pnode.t; version : int }
  | R_version of int
  | R_txn of int
  | R_handle of { pnode : Pnode.t }
  | R_batch of resp list
      (* one reply per applied OP_PASSBATCH item, in order; the server
         stops at the first error, so the last element may be an R_err
         and items beyond it were not applied *)

(* 64 KB: the NFSv4 client block size that triggers transactions. *)
let block_limit = 65536

let kind_tag = function Vfs.Regular -> 0 | Vfs.Directory -> 1

let encode_batch_item buf (it : batch_item) =
  let open Wire in
  put_i64 buf (Pnode.to_int it.bi_pnode);
  put_i64 buf it.bi_off;
  (match it.bi_data with
  | None -> put_u8 buf 0
  | Some d -> put_u8 buf 1; put_string buf d);
  Dpapi.encode_bundle buf it.bi_bundle

let decode_batch_item s pos =
  let open Wire in
  let bi_pnode = Pnode.of_int (get_i64 s pos) in
  let bi_off = get_i64 s pos in
  let bi_data =
    match get_u8 s pos with
    | 0 -> None
    | 1 -> Some (get_string s pos)
    | t -> Wire.corrupt "panfs: bad option tag %d" t
  in
  let bi_bundle = Dpapi.decode_bundle s pos in
  { bi_pnode; bi_off; bi_data; bi_bundle }

let encode_req buf req =
  let open Wire in
  match req with
  | Lookup { dir; name } ->
      put_u8 buf 1; put_i64 buf dir; put_string buf name
  | Create { dir; name; kind } ->
      put_u8 buf 2; put_i64 buf dir; put_string buf name; put_u8 buf (kind_tag kind)
  | Remove { dir; name } -> put_u8 buf 3; put_i64 buf dir; put_string buf name
  | Rename { src_dir; src_name; dst_dir; dst_name } ->
      put_u8 buf 4; put_i64 buf src_dir; put_string buf src_name;
      put_i64 buf dst_dir; put_string buf dst_name
  | Getattr { ino } -> put_u8 buf 5; put_i64 buf ino
  | Readdir { ino } -> put_u8 buf 6; put_i64 buf ino
  | Read { ino; off; len } -> put_u8 buf 7; put_i64 buf ino; put_i64 buf off; put_i64 buf len
  | Write { ino; off; data } -> put_u8 buf 8; put_i64 buf ino; put_i64 buf off; put_string buf data
  | Truncate { ino; size } -> put_u8 buf 9; put_i64 buf ino; put_i64 buf size
  | Commit { ino } -> put_u8 buf 10; put_i64 buf ino
  | Op_passread { pnode; off; len } ->
      put_u8 buf 20; put_i64 buf (Pnode.to_int pnode); put_i64 buf off; put_i64 buf len
  | Op_passwrite { pnode; off; data; bundle; txn } ->
      put_u8 buf 21;
      put_i64 buf (Pnode.to_int pnode);
      put_i64 buf off;
      (match data with
      | None -> put_u8 buf 0
      | Some d -> put_u8 buf 1; put_string buf d);
      Dpapi.encode_bundle buf bundle;
      (match txn with None -> put_u8 buf 0 | Some id -> put_u8 buf 1; put_i64 buf id)
  | Op_begintxn -> put_u8 buf 22
  | Op_passprov { txn; chunk } ->
      put_u8 buf 23; put_i64 buf txn; Dpapi.encode_bundle buf chunk
  | Op_passmkobj -> put_u8 buf 24
  | Op_passreviveobj { pnode; version } ->
      put_u8 buf 25; put_i64 buf (Pnode.to_int pnode); put_i64 buf version
  | Op_passsync { pnode } -> put_u8 buf 26; put_i64 buf (Pnode.to_int pnode)
  | Op_pnode { ino } -> put_u8 buf 27; put_i64 buf ino
  | Op_passbatch { writes } -> put_u8 buf 28; put_list buf encode_batch_item writes

let rec encode_resp buf resp =
  let open Wire in
  match resp with
  | R_err e -> put_u8 buf 1; put_string buf (Vfs.errno_to_string e)
  | R_ino ino -> put_u8 buf 2; put_i64 buf ino
  | R_ok -> put_u8 buf 3
  | R_attr st ->
      put_u8 buf 4; put_i64 buf st.Vfs.st_ino; put_u8 buf (kind_tag st.st_kind);
      put_i64 buf st.st_size
  | R_names names -> put_u8 buf 5; put_list buf put_string names
  | R_data d -> put_u8 buf 6; put_string buf d
  | R_passread { data; pnode; version } ->
      put_u8 buf 7; put_string buf data; put_i64 buf (Pnode.to_int pnode); put_i64 buf version
  | R_version v -> put_u8 buf 8; put_i64 buf v
  | R_txn id -> put_u8 buf 9; put_i64 buf id
  | R_handle { pnode } -> put_u8 buf 10; put_i64 buf (Pnode.to_int pnode)
  | R_batch resps -> put_u8 buf 11; put_list buf encode_resp resps

let kind_of_tag = function
  | 0 -> Vfs.Regular
  | 1 -> Vfs.Directory
  | t -> Wire.corrupt "panfs: bad kind tag %d" t

let decode_req s pos =
  let open Wire in
  match get_u8 s pos with
  | 1 ->
      let dir = get_i64 s pos in
      let name = get_string s pos in
      Lookup { dir; name }
  | 2 ->
      let dir = get_i64 s pos in
      let name = get_string s pos in
      let kind = kind_of_tag (get_u8 s pos) in
      Create { dir; name; kind }
  | 3 ->
      let dir = get_i64 s pos in
      let name = get_string s pos in
      Remove { dir; name }
  | 4 ->
      let src_dir = get_i64 s pos in
      let src_name = get_string s pos in
      let dst_dir = get_i64 s pos in
      let dst_name = get_string s pos in
      Rename { src_dir; src_name; dst_dir; dst_name }
  | 5 -> Getattr { ino = get_i64 s pos }
  | 6 -> Readdir { ino = get_i64 s pos }
  | 7 ->
      let ino = get_i64 s pos in
      let off = get_i64 s pos in
      let len = get_i64 s pos in
      Read { ino; off; len }
  | 8 ->
      let ino = get_i64 s pos in
      let off = get_i64 s pos in
      let data = get_string s pos in
      Write { ino; off; data }
  | 9 ->
      let ino = get_i64 s pos in
      let size = get_i64 s pos in
      Truncate { ino; size }
  | 10 -> Commit { ino = get_i64 s pos }
  | 20 ->
      let pnode = Pnode.of_int (get_i64 s pos) in
      let off = get_i64 s pos in
      let len = get_i64 s pos in
      Op_passread { pnode; off; len }
  | 21 ->
      let pnode = Pnode.of_int (get_i64 s pos) in
      let off = get_i64 s pos in
      let data =
        match get_u8 s pos with
        | 0 -> None
        | 1 -> Some (get_string s pos)
        | t -> Wire.corrupt "panfs: bad option tag %d" t
      in
      let bundle = Dpapi.decode_bundle s pos in
      let txn =
        match get_u8 s pos with
        | 0 -> None
        | 1 -> Some (get_i64 s pos)
        | t -> Wire.corrupt "panfs: bad option tag %d" t
      in
      Op_passwrite { pnode; off; data; bundle; txn }
  | 22 -> Op_begintxn
  | 23 ->
      let txn = get_i64 s pos in
      let chunk = Dpapi.decode_bundle s pos in
      Op_passprov { txn; chunk }
  | 24 -> Op_passmkobj
  | 25 ->
      let pnode = Pnode.of_int (get_i64 s pos) in
      let version = get_i64 s pos in
      Op_passreviveobj { pnode; version }
  | 26 -> Op_passsync { pnode = Pnode.of_int (get_i64 s pos) }
  | 27 -> Op_pnode { ino = get_i64 s pos }
  | 28 -> Op_passbatch { writes = get_list decode_batch_item s pos }
  | t -> Wire.corrupt "panfs: bad request tag %d" t

let rec decode_resp s pos =
  let open Wire in
  match get_u8 s pos with
  | 1 -> (
      let name = get_string s pos in
      match Vfs.errno_of_string name with
      | Some e -> R_err e
      | None -> Wire.corrupt "panfs: bad errno %S" name)
  | 2 -> R_ino (get_i64 s pos)
  | 3 -> R_ok
  | 4 ->
      let st_ino = get_i64 s pos in
      let st_kind = kind_of_tag (get_u8 s pos) in
      let st_size = get_i64 s pos in
      R_attr { Vfs.st_ino; st_kind; st_size }
  | 5 -> R_names (get_list get_string s pos)
  | 6 -> R_data (get_string s pos)
  | 7 ->
      let data = get_string s pos in
      let pnode = Pnode.of_int (get_i64 s pos) in
      let version = get_i64 s pos in
      R_passread { data; pnode; version }
  | 8 -> R_version (get_i64 s pos)
  | 9 -> R_txn (get_i64 s pos)
  | 10 -> R_handle { pnode = Pnode.of_int (get_i64 s pos) }
  | 11 -> R_batch (get_list decode_resp s pos)
  | t -> Wire.corrupt "panfs: bad response tag %d" t

(* Arithmetic twins of [encode_req]/[encode_resp]: the byte length each
   appends, computed without encoding (u8 tags, i64 integers, strings and
   lists behind a u32 length).  The transport charges the link with these
   on every datagram, so they must stay exact; [test_panfs] checks them
   against the encoders on generated messages of every constructor. *)
let string_size s = 4 + String.length s
let data_size = function None -> 1 | Some d -> 1 + string_size d

let batch_item_size acc (it : batch_item) =
  acc + 16 + data_size it.bi_data + Dpapi.bundle_size it.bi_bundle

let req_size = function
  | Lookup { name; _ } | Remove { name; _ } -> 9 + string_size name
  | Create { name; _ } -> 10 + string_size name
  | Rename { src_name; dst_name; _ } -> 17 + string_size src_name + string_size dst_name
  | Getattr _ | Readdir _ | Commit _ | Op_passsync _ | Op_pnode _ -> 9
  | Read _ | Op_passread _ -> 25
  | Write { data; _ } -> 17 + string_size data
  | Truncate _ | Op_passreviveobj _ -> 17
  | Op_passwrite { data; bundle; txn; _ } ->
      17 + data_size data + Dpapi.bundle_size bundle
      + (match txn with None -> 1 | Some _ -> 9)
  | Op_begintxn | Op_passmkobj -> 1
  | Op_passprov { chunk; _ } -> 9 + Dpapi.bundle_size chunk
  | Op_passbatch { writes } -> List.fold_left batch_item_size 5 writes

let rec resp_size = function
  | R_err e -> 1 + string_size (Vfs.errno_to_string e)
  | R_ino _ | R_version _ | R_txn _ | R_handle _ -> 9
  | R_ok -> 1
  | R_attr _ -> 18
  | R_names names -> List.fold_left (fun acc n -> acc + string_size n) 5 names
  | R_data d -> 1 + string_size d
  | R_passread { data; _ } -> 17 + string_size data
  | R_batch resps -> List.fold_left (fun acc r -> acc + resp_size r) 5 resps

(* The call envelope: client id + per-client sequence number, the key of
   the server's duplicate-request cache.  A retransmission reuses the
   sequence number so the server replays its cached reply instead of
   re-executing the operation.

   The envelope also carries the client's pvtrace context (both ids 0
   when the client is untraced): the server parents its spans onto
   [c_span] within [c_trace].  The envelope is built once per logical
   call, so retransmissions and duplicate deliveries reuse the original
   context just as they reuse the sequence number. *)
type call = {
  c_client : int;
  c_seq : int;
  c_trace : int;
  c_span : int;
  c_req : req;
}

let encode_call buf c =
  Wire.put_i64 buf c.c_client;
  Wire.put_i64 buf c.c_seq;
  Wire.put_i64 buf c.c_trace;
  Wire.put_i64 buf c.c_span;
  encode_req buf c.c_req

let decode_call s pos =
  let c_client = Wire.get_i64 s pos in
  let c_seq = Wire.get_i64 s pos in
  let c_trace = Wire.get_i64 s pos in
  let c_span = Wire.get_i64 s pos in
  let c_req = decode_req s pos in
  { c_client; c_seq; c_trace; c_span; c_req }

(* The envelope's four i64 fields, then the request. *)
let call_size c = 32 + req_size c.c_req

(* Span-name component for an RPC request, used by client and server
   tracing ("panfs.client"/"rpc.write", "panfs.server"/"rpc.write"). *)
let req_name = function
  | Lookup _ -> "rpc.lookup"
  | Create _ -> "rpc.create"
  | Remove _ -> "rpc.remove"
  | Rename _ -> "rpc.rename"
  | Getattr _ -> "rpc.getattr"
  | Readdir _ -> "rpc.readdir"
  | Read _ -> "rpc.read"
  | Write _ -> "rpc.write"
  | Truncate _ -> "rpc.truncate"
  | Commit _ -> "rpc.commit"
  | Op_passread _ -> "rpc.passread"
  | Op_passwrite _ -> "rpc.passwrite"
  | Op_begintxn -> "rpc.begintxn"
  | Op_passprov _ -> "rpc.passprov"
  | Op_passmkobj -> "rpc.passmkobj"
  | Op_passreviveobj _ -> "rpc.passreviveobj"
  | Op_passsync _ -> "rpc.passsync"
  | Op_pnode _ -> "rpc.pnode"
  | Op_passbatch _ -> "rpc.passbatch"

(* The simulated network: a synchronous RPC charges one round trip of
   latency plus transfer at the link rate to the shared clock.  A fault
   plan can drop, delay or duplicate either datagram, or partition the
   link; the client above retries on [`Timeout].  The link constants
   approximate 2009-era gigabit. *)
let latency_ns = Simdisk.Clock.ns_of_us 150 (* one-way *)
let ns_per_byte = 8
let timeout_ns = Simdisk.Clock.ns_of_ms 10 (* how long the client waits before `Timeout *)

type net = {
  clock : Simdisk.Clock.t;
  fault : Fault.plan;
  mutable next_client : int;
  mutable messages : int;
  mutable bytes : int;
}

let net ?(fault = Fault.none) clock =
  { clock; fault; next_client = 1; messages = 0; bytes = 0 }

(* Client ids are per-net, not global, so repeated in-process runs with
   the same seed see identical ids (the determinism test depends on it). *)
let fresh_client net =
  let id = net.next_client in
  net.next_client <- id + 1;
  id

(* One datagram crossing the link.  Counted and charged even when the
   delivery is subsequently dropped: a lost message still consumed wire
   time, which is exactly what retransmission overhead measures. *)
let transmit net nbytes =
  net.messages <- net.messages + 1;
  net.bytes <- net.bytes + nbytes;
  Simdisk.Clock.advance net.clock (latency_ns + (nbytes * ns_per_byte))

let timed_out net =
  Simdisk.Clock.advance net.clock timeout_ns;
  Error `Timeout

(* One delivery: the server runs the call and its reply crosses back.
   The call is the value the client built — immutable, so a duplicate or
   a retransmission redelivers exactly what the first delivery saw. *)
let deliver net handler c =
  let resp = handler c in
  transmit net (resp_size resp);
  resp

let rpc net handler (c : call) =
  let req_bytes = call_size c in
  let now = Simdisk.Clock.now net.clock in
  if Fault.partitioned net.fault ~now then begin
    transmit net req_bytes;
    timed_out net
  end
  else
    match Fault.next_net_fault net.fault ~now with
    | Some Fault.Drop_request
    | Some (Fault.Partition_ns _)
    | Some (Fault.Server_restart_ns _) ->
        (* a partition or restart drawn here opens its window with this
           datagram already inside it *)
        transmit net req_bytes;
        timed_out net
    | Some Fault.Drop_response ->
        (* the server executes and replies, but the reply is lost: the
           case the duplicate-request cache exists for *)
        transmit net req_bytes;
        let _lost : resp = deliver net handler c in
        timed_out net
    | Some Fault.Duplicate ->
        (* the request datagram is delivered twice; the second execution
           must hit the server's duplicate-request cache *)
        transmit net req_bytes;
        let resp = deliver net handler c in
        transmit net req_bytes;
        let _replayed : resp = deliver net handler c in
        Ok resp
    | Some (Fault.Delay_ns d) ->
        Simdisk.Clock.advance net.clock d;
        transmit net req_bytes;
        Ok (deliver net handler c)
    | None ->
        transmit net req_bytes;
        Ok (deliver net handler c)
