(* The PA-NFS client.

   Presents Vfs.ops (so it can be mounted like any file system, and so
   Lasagna-style layering above it keeps working) and the DPAPI (so the
   client machine's distributor can route provenance to the server volume).

   Versioning (paper §6.1.2): when the client's analyzer issues a
   pass_freeze, the client increments the version *locally* and attaches a
   freeze record to the file, so a subsequent pass_read returns the
   correct version without a server round trip.  The queued freeze records
   travel to the server inside the next OP_PASSWRITE for that file, which
   keeps freeze ordered with respect to the writes it protects.  Because
   of NFS close-to-open consistency, two clients can produce the same
   version number independently — version branching — which the paper
   accepts; [test_panfs] exercises it.

   Every provenance write leaves through one route, [submit]: the backlog
   of parked writes replays first, then the new writes go out oldest
   first, grouped into OP_PASSBATCH envelopes; a write that cannot share
   an envelope travels alone, as one OP_PASSWRITE or — when provenance
   plus data exceed 64 KB — as a transaction.  The transaction steps are
   exposed so tests can simulate a client crash between OP_BEGINTXN and
   the terminating OP_PASSWRITE. *)

module Dpapi = Pass_core.Dpapi
module Ctx = Pass_core.Ctx
module Record = Pass_core.Record
module Pnode = Pass_core.Pnode

(* Registry-backed instruments. *)
type instruments = {
  rpcs : Telemetry.counter;
  txns : Telemetry.counter;
  inline_writes : Telemetry.counter; (* writes sent as one lone OP_PASSWRITE *)
  rpc_latency : Telemetry.histogram; (* simulated ns per RPC round trip *)
  retries : Telemetry.counter; (* nfs.retries: retransmissions after a timeout *)
  backpressure : Telemetry.counter; (* nfs.backpressure: EAGAINs on a full backlog *)
  wb_queued : Telemetry.counter; (* nfs.wb_queued *)
  txns_abandoned : Telemetry.counter; (* nfs.txns_abandoned *)
  batch_rpcs : Telemetry.counter; (* nfs.batch_rpcs *)
  batched_writes : Telemetry.counter; (* nfs.batched_writes *)
  wb_backlog : Telemetry.gauge; (* nfs.wb_backlog: queued writes right now *)
}

let instruments registry =
  let c name = Telemetry.counter ?registry ("panfs." ^ name) in
  let n name = Telemetry.counter ?registry ("nfs." ^ name) in
  {
    rpcs = c "rpcs";
    txns = c "txns";
    inline_writes = c "inline_writes";
    rpc_latency = Telemetry.histogram ?registry "panfs.rpc_latency";
    retries = n "retries";
    backpressure = n "backpressure";
    wb_queued = n "wb_queued";
    txns_abandoned = n "txns_abandoned";
    batch_rpcs = n "batch_rpcs";
    batched_writes = n "batched_writes";
    wb_backlog = Telemetry.gauge ?registry "nfs.wb_backlog";
  }

(* Write-behind buffers: the client coalesces contiguous streaming writes
   up to the 64 KB block size before issuing one WRITE / OP_PASSWRITE, the
   way a real NFS client's wsize batching works.  Close-to-open
   consistency allows it: buffers are flushed before any read, getattr or
   namespace operation.  A buffer keeps its writes as written, newest
   first, with their running length, and joins them once when it is
   sent. *)
type chunks = { mutable newest_first : string list; mutable length : int }

type plain_buf = { pb_ino : Vfs.ino; mutable pb_off : int; pb_data : chunks }

type prov_buf = {
  vb_handle : Dpapi.handle;
  mutable vb_off : int;
  vb_data : chunks;
  mutable vb_bundle : Dpapi.bundle; (* reversed *)
}

(* One provenance write on its way to the server: a flushed rider, a
   write sent alone, or one parked in the backlog. *)
type wb_item = {
  wi_handle : Dpapi.handle;
  wi_off : int;
  wi_data : string option;
  wi_bundle : Dpapi.bundle;
}

type t = {
  net : Proto.net;
  handler : Proto.call -> Proto.resp;
  ctx : Ctx.t; (* the client machine's context *)
  mount_name : string; (* volume name on the client *)
  pnode_cache : (Vfs.ino, Pnode.t) Hashtbl.t;
  pending_freezes : (Pnode.t, Record.t list) Hashtbl.t;
  tracer : Pvtrace.t;
  i : instruments;
  client_id : int;
  mutable seq : int;
  wb : wb_item Queue.t; (* the backlog: parked writes, oldest first *)
  wb_high_water : int;
  piggyback : bool; (* coalesce independent writes into OP_PASSBATCH *)
  mutable crashed : bool;
  mutable plain_pending : plain_buf option;
  mutable prov_pending : prov_buf list; (* newest first; one buffer per file *)
}

let create ?registry ?(wb_high_water = 64) ?(piggyback = true)
    ?(tracer = Pvtrace.disabled) ~net ~handler ~ctx ~mount_name () =
  {
    net; handler; ctx; mount_name;
    pnode_cache = Hashtbl.create 256;
    pending_freezes = Hashtbl.create 16;
    tracer;
    i = instruments registry;
    client_id = Proto.fresh_client net;
    seq = 0;
    wb = Queue.create ();
    wb_high_water = max 1 wb_high_water;
    piggyback;
    crashed = false;
    plain_pending = None;
    prov_pending = [];
  }

(* Simulate the client host dying: every subsequent call fails.  Used by
   the orphaned-transaction tests. *)
let crash t = t.crashed <- true

(* Retry policy: capped exponential backoff.  The sequence number stays
   fixed across retransmissions of one call, so the server's
   duplicate-request cache replays rather than re-executes.  The backoff
   budget (~0.8 s of simulated time) comfortably outlives the fault
   plan's transient partitions but gives up on a long outage, at which
   point provenance writes fall back to the write-behind backlog. *)
let initial_backoff_ns = Simdisk.Clock.ns_of_ms 2
let backoff_cap_ns = Simdisk.Clock.ns_of_ms 50
let max_attempts = 16

(* Send [c] until a reply arrives; [None] = it timed out [max_attempts]
   times (server unreachable). *)
let rec attempt t c n backoff =
  match Proto.rpc t.net t.handler c with
  | Ok resp -> Some resp
  | Error `Timeout ->
      if n + 1 >= max_attempts then None
      else begin
        Telemetry.incr t.i.retries;
        Simdisk.Clock.advance t.net.Proto.clock backoff;
        attempt t c (n + 1) (min (2 * backoff) backoff_cap_ns)
      end

(* One logical call, inside its RPC span.  The span is the wire context:
   the envelope — context included — is built once per logical call, so
   every retransmission carries the same trace and span ids, and the
   server parents the retried work onto the original span. *)
let exchange t req =
  let seq = t.seq in
  t.seq <- seq + 1;
  let c_trace, c_span =
    match Pvtrace.current t.tracer with Some c -> c | None -> (0, 0)
  in
  let c = { Proto.c_client = t.client_id; c_seq = seq; c_trace; c_span; c_req = req } in
  match attempt t c 0 initial_backoff_ns with
  | Some _ as r -> r
  | None ->
      Pvtrace.set_outcome t.tracer "unreachable";
      None

(* [panfs.rpc_latency] observes each call's simulated round trip,
   retries included, whether it returns or raises. *)
let observe_latency t t0 =
  Telemetry.observe t.i.rpc_latency
    (float_of_int (Simdisk.Clock.now t.net.Proto.clock - t0))

let call_opt t req =
  if t.crashed then Some (Proto.R_err Vfs.ECRASH)
  else begin
    Telemetry.incr t.i.rpcs;
    let t0 = Simdisk.Clock.now t.net.Proto.clock in
    match
      Pvtrace.span t.tracer ~layer:"panfs.client" ~op:(Proto.req_name req) (fun () ->
          exchange t req)
    with
    | r ->
        observe_latency t t0;
        r
    | exception e ->
        observe_latency t t0;
        raise e
  end

let call t req =
  match call_opt t req with
  | Some resp -> resp
  | None -> Proto.R_err Vfs.EIO

let reply_errno = function Proto.R_err e -> e | _ -> Vfs.EIO

(* A VFS-face call: [expect] recognises the success reply; a timeout is
   EIO. *)
let vfs_call t req expect =
  let resp = call t req in
  match expect resp with Some v -> Ok v | None -> Error (reply_errno resp)

(* A provenance call keeps a timeout apart from a refusal: a write the
   server never acknowledged may be parked and replayed, a refused one
   may not. *)
type failure = Timeout | Refused of Dpapi.error

let rpc t req expect =
  match call_opt t req with
  | None -> Error Timeout
  | Some resp -> (
      match expect resp with
      | Some v -> Ok v
      | None -> Error (Refused (Dpapi.of_errno (reply_errno resp))))

(* The DPAPI face reports a timeout as EIO, as the VFS face does. *)
let dpapi r = Result.map_error (function Timeout -> Dpapi.Eio | Refused e -> e) r

let unit_reply = function Proto.R_ok -> Some () | _ -> None
let version_reply = function Proto.R_version v -> Some v | _ -> None
let pnode_reply = function Proto.R_handle { pnode } -> Some pnode | _ -> None

(* --- write-behind ------------------------------------------------------------ *)

let no_chunks () = { newest_first = []; length = 0 }

let add_chunk c data =
  c.newest_first <- data :: c.newest_first;
  c.length <- c.length + String.length data

(* A lone write goes as is. *)
let joined c =
  match c.newest_first with [ data ] -> data | l -> String.concat "" (List.rev l)

let flush_plain t =
  match t.plain_pending with
  | None -> Ok ()
  | Some pb ->
      t.plain_pending <- None;
      if pb.pb_data.length = 0 then Ok ()
      else
        vfs_call t
          (Proto.Write { ino = pb.pb_ino; off = pb.pb_off; data = joined pb.pb_data })
          unit_reply

let buffered_plain_write t ino ~off data =
  let fits =
    match t.plain_pending with
    | Some pb -> pb.pb_ino = ino && pb.pb_off + pb.pb_data.length = off
    | None -> false
  in
  let ( let* ) = Result.bind in
  let* () = if fits then Ok () else flush_plain t in
  let pb =
    match t.plain_pending with
    | Some pb -> pb
    | None ->
        let pb = { pb_ino = ino; pb_off = off; pb_data = no_chunks () } in
        t.plain_pending <- Some pb;
        pb
  in
  add_chunk pb.pb_data data;
  (* flush at the 64 KB block size, or immediately for a non-streaming
     (short) write *)
  if pb.pb_data.length >= Proto.block_limit || String.length data < 4096 then
    flush_plain t
  else Ok ()

(* --- handles ---------------------------------------------------------------- *)

let file_handle t ino =
  let ( let* ) = Result.bind in
  let* pnode =
    match Hashtbl.find_opt t.pnode_cache ino with
    | Some p -> Ok p
    | None ->
        let* pnode = vfs_call t (Proto.Op_pnode { ino }) pnode_reply in
        Hashtbl.replace t.pnode_cache ino pnode;
        Ok pnode
  in
  Ok (Dpapi.handle ~volume:t.mount_name pnode)

(* --- transaction steps ------------------------------------------------------ *)

let txn_begin t =
  let r = rpc t Proto.Op_begintxn (function Proto.R_txn id -> Some id | _ -> None) in
  if Result.is_ok r then Telemetry.incr t.i.txns;
  r

let txn_chunk t ~txn chunk = rpc t (Proto.Op_passprov { txn; chunk }) unit_reply

let txn_end t ~txn (h : Dpapi.handle) ~off ~data =
  let endtxn =
    [ Dpapi.entry h [ Record.make Record.Attr.endtxn (Pass_core.Pvalue.Int txn) ] ]
  in
  rpc t (Proto.Op_passwrite { pnode = h.pnode; off; data; bundle = endtxn; txn = Some txn })
    version_reply

let begin_txn t = dpapi (txn_begin t)
let send_prov_chunk t ~txn chunk = dpapi (txn_chunk t ~txn chunk)
let end_txn_write t ~txn h ~off ~data = dpapi (txn_end t ~txn h ~off ~data)

(* Encoded-size budget for one envelope: an OP_PASSBATCH's items, or one
   OP_PASSPROV chunk (headroom for the framing under the block size). *)
let batch_budget = Proto.block_limit - 1024
let max_batch_items = 16

(* Split a bundle into chunks whose encoded size stays within
   [batch_budget].  An entry whose own record list is oversized is split
   into several entries for the same target. *)
let chunk_bundle bundle =
  (* first explode oversized entries *)
  let exploded =
    List.concat_map
      (fun (e : Dpapi.bundle_entry) ->
        if Dpapi.bundle_size [ e ] <= batch_budget then [ e ]
        else begin
          let groups = ref [] and current = ref [] and size = ref 0 in
          List.iter
            (fun r ->
              let rsz = Record.encoded_size r in
              if !size + rsz > batch_budget && !current <> [] then begin
                groups := List.rev !current :: !groups;
                current := [];
                size := 0
              end;
              current := r :: !current;
              size := !size + rsz)
            e.records;
          if !current <> [] then groups := List.rev !current :: !groups;
          List.rev_map (fun records -> Dpapi.entry e.target records) !groups
        end)
      bundle
  in
  let rec go current current_size acc = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | (e : Dpapi.bundle_entry) :: rest ->
        let sz = Dpapi.bundle_size [ e ] in
        if current <> [] && current_size + sz > batch_budget then
          go [ e ] sz (List.rev current :: acc) rest
        else go (e :: current) (current_size + sz) acc rest
  in
  go [] 0 [] exploded

(* --- the send path ------------------------------------------------------------ *)

(* Pending client-local freeze records travel with the file's next write. *)
let item t (h : Dpapi.handle) ~off ~data bundle =
  let bundle =
    match Hashtbl.find_opt t.pending_freezes h.pnode with
    | Some records ->
        Hashtbl.remove t.pending_freezes h.pnode;
        Dpapi.entry h (List.rev records) :: bundle
    | None -> bundle
  in
  { wi_handle = h; wi_off = off; wi_data = data; wi_bundle = bundle }

let item_size (it : wb_item) =
  Dpapi.bundle_size it.wi_bundle
  + match it.wi_data with Some d -> String.length d | None -> 0

(* A write alone: one OP_PASSWRITE, or a transaction when bundle plus data
   exceed the block size — OP_BEGINTXN, the bundle in OP_PASSPROV chunks,
   then the data under the OP_PASSWRITE whose ENDTXN record commits it.  A
   transaction that times out part-way is abandoned: its server-side
   fragment is an orphan for Waldo, and the whole write is replayed later
   under a fresh transaction id. *)
let send_one t (it : wb_item) =
  let h = it.wi_handle and off = it.wi_off and data = it.wi_data in
  if item_size it <= Proto.block_limit then begin
    Telemetry.incr t.i.inline_writes;
    rpc t
      (Proto.Op_passwrite { pnode = h.pnode; off; data; bundle = it.wi_bundle; txn = None })
      version_reply
  end
  else begin
    let ( let* ) = Result.bind in
    let* txn = txn_begin t in
    let r =
      let* () =
        List.fold_left
          (fun acc chunk ->
            let* () = acc in
            txn_chunk t ~txn chunk)
          (Ok ()) (chunk_bundle it.wi_bundle)
      in
      txn_end t ~txn h ~off ~data
    in
    (match r with Error Timeout -> Telemetry.incr t.i.txns_abandoned | _ -> ());
    r
  end

(* Several writes in one OP_PASSBATCH envelope, under a single sequence
   number: a retransmitted or duplicated envelope hits the server's
   duplicate-request cache as one unit, so no item is ever re-applied.
   [Error (f, n)] = the first [n] items applied and the next one failed
   with [f] (a timeout applies none). *)
let send_batch t items =
  Telemetry.incr t.i.batch_rpcs;
  Telemetry.add t.i.batched_writes (List.length items);
  let writes =
    List.map
      (fun (it : wb_item) ->
        { Proto.bi_pnode = it.wi_handle.Dpapi.pnode; bi_off = it.wi_off;
          bi_data = it.wi_data; bi_bundle = it.wi_bundle })
      items
  in
  let refused e n = Error (Refused (Dpapi.of_errno e), n) in
  match call_opt t (Proto.Op_passbatch { writes }) with
  | None -> Error (Timeout, 0)
  | Some (Proto.R_batch resps) ->
      let rec walk n last = function
        | [] -> if n = List.length items then Ok last else refused Vfs.EIO n
        | Proto.R_version v :: rest -> walk (n + 1) v rest
        | resp :: _ -> refused (reply_errno resp) n
      in
      walk 0 0 resps
  | Some resp -> refused (reply_errno resp) 0

(* The next envelope's items: the longest prefix of [q] (non-empty) that
   fits one OP_PASSBATCH (at most [max_batch_items], each and all together
   within [batch_budget]), else the head alone. *)
let envelope t q =
  let rec take seq acc n size =
    match Seq.uncons seq with
    | Some (it, rest) when n < max_batch_items ->
        let s = item_size it in
        if s <= batch_budget && size + s <= batch_budget then
          take rest (it :: acc) (n + 1) (size + s)
        else List.rev acc
    | _ -> List.rev acc
  in
  let head = Queue.peek q in
  if (not t.piggyback) || Queue.length q = 1 then [ head ]
  else match take (Queue.to_seq q) [] 0 0 with [] -> [ head ] | group -> group

let pop t q n =
  for _ = 1 to n do ignore (Queue.pop q : wb_item) done;
  Telemetry.set t.i.wb_backlog (float_of_int (Queue.length t.wb))

(* Send [q] oldest first, one envelope per group, popping each write once
   the server has applied it.  [Error Timeout] leaves the unacknowledged
   group at the head of [q]; [Error (Refused e)] drops the refused write
   and leaves the ones behind it.  [Ok v] = [q] emptied, the last write
   landing in version [v]. *)
let rec send_queue t q last =
  if Queue.is_empty q then Ok last
  else
    let group = envelope t q in
    let sent =
      match group with
      | [ it ] -> Result.map_error (fun f -> (f, 0)) (send_one t it)
      | _ -> send_batch t group
    in
    match sent with
    | Ok v ->
        pop t q (List.length group);
        send_queue t q v
    | Error (Timeout, _) -> Error Timeout
    | Error (Refused e, applied) ->
        pop t q (applied + 1);
        Error (Refused e)

(* Park [q] behind the backlog, oldest first, until the high-water mark:
   the first write past it counts as backpressure, it and the rest are
   dropped, and the call fails with EAGAIN.  [Ok v] = the local view of
   the last write's version. *)
let park t q =
  Queue.fold
    (fun acc (it : wb_item) ->
      match acc with
      | Error _ -> acc
      | Ok _ when Queue.length t.wb >= t.wb_high_water ->
          Telemetry.incr t.i.backpressure;
          Error Dpapi.Eagain
      | Ok _ ->
          Telemetry.incr t.i.wb_queued;
          Queue.add it t.wb;
          Telemetry.set t.i.wb_backlog (float_of_int (Queue.length t.wb));
          Ok (Ctx.current_version t.ctx it.wi_handle.pnode))
    (Ok 0) q

(* The one route for provenance writes: replay the backlog, then send
   [items] (oldest first) in envelopes.  What a timeout leaves is parked.
   A refusal is returned; the writes behind it stay parked for the next
   drain when [acked] (they were already acknowledged to the application,
   as flushed riders are) and are dropped with the error otherwise. *)
let submit t ~acked items =
  let q = Queue.create () in
  List.iter (fun it -> Queue.add it q) items;
  let sent = match send_queue t t.wb 0 with Ok _ -> send_queue t q 0 | e -> e in
  match sent with
  | Ok v -> Ok v
  | Error Timeout -> park t q
  | Error (Refused e) ->
      if acked then ignore (park t q : (int, Dpapi.error) result);
      Error e

let backlog t = Queue.length t.wb

let drain_backlog t =
  match send_queue t t.wb 0 with
  | Ok _ -> Ok ()
  | Error Timeout -> Error Dpapi.Eagain
  | Error (Refused e) -> Error e

(* Flush the DPAPI write-behind buffers: every file's coalesced writes,
   oldest first, behind the backlog. *)
let flush_prov t =
  match t.prov_pending with
  | [] when Queue.is_empty t.wb -> Ok 0 (* nothing to send: most VFS calls *)
  | pending ->
      t.prov_pending <- [];
      submit t ~acked:true
        (List.rev_map
           (fun vb ->
             item t vb.vb_handle ~off:vb.vb_off
               ~data:(Some (joined vb.vb_data))
               (List.rev vb.vb_bundle))
           pending)

(* Close-to-open flush hook (for [Kernel.mount ~flush]): push both
   write-behind buffers now.  A partition parks provenance in the backlog
   instead of failing the close. *)
let flush t =
  match flush_prov t with
  | Error e -> Error (Dpapi.to_errno e)
  | Ok _ -> flush_plain t

(* --- VFS face -------------------------------------------------------------- *)

(* Close-to-open consistency: both write-behind buffers — the plain one
   and the provenance/data riders — flush before any read, getattr or
   namespace operation observes server state. *)
let ops t : Vfs.ops =
  let flushed req expect = Result.bind (flush t) (fun () -> vfs_call t req expect) in
  let ino_reply = function Proto.R_ino ino -> Some ino | _ -> None in
  {
    root = (fun () -> Ext3.root_ino);
    lookup = (fun ~dir name -> flushed (Proto.Lookup { dir; name }) ino_reply);
    create = (fun ~dir name kind -> flushed (Proto.Create { dir; name; kind }) ino_reply);
    unlink = (fun ~dir name -> flushed (Proto.Remove { dir; name }) unit_reply);
    rename =
      (fun ~src_dir ~src_name ~dst_dir ~dst_name ->
        flushed (Proto.Rename { src_dir; src_name; dst_dir; dst_name }) unit_reply);
    read =
      (fun ino ~off ~len ->
        flushed (Proto.Read { ino; off; len }) (function Proto.R_data d -> Some d | _ -> None));
    write = (fun ino ~off data -> buffered_plain_write t ino ~off data);
    truncate = (fun ino size -> flushed (Proto.Truncate { ino; size }) unit_reply);
    getattr =
      (fun ino ->
        flushed (Proto.Getattr { ino }) (function Proto.R_attr st -> Some st | _ -> None));
    readdir =
      (fun ino ->
        flushed (Proto.Readdir { ino }) (function Proto.R_names ns -> Some ns | _ -> None));
    fsync = (fun ino -> flushed (Proto.Commit { ino }) unit_reply);
    sync = (fun () -> flush t);
  }

(* --- DPAPI face -------------------------------------------------------------- *)

let pass_read t (h : Dpapi.handle) ~off ~len =
  ignore (flush_prov t : (int, Dpapi.error) result);
  ignore (flush_plain t : (unit, Vfs.errno) result);
  let ( let* ) = Result.bind in
  let* data, pnode, version =
    dpapi
      (rpc t (Proto.Op_passread { pnode = h.pnode; off; len }) (function
        | Proto.R_passread { data; pnode; version } -> Some (data, pnode, version)
        | _ -> None))
  in
  Ctx.adopt t.ctx pnode ~version;
  (* the local view may be ahead (local freezes): serve the local
     version, no server trip needed (§6.1.2) *)
  Ok { Dpapi.data; r_pnode = pnode; r_version = Ctx.current_version t.ctx pnode }

let pending_size t =
  List.fold_left
    (fun n vb -> n + vb.vb_data.length + Dpapi.bundle_size vb.vb_bundle)
    0 t.prov_pending

let find_pending t (h : Dpapi.handle) =
  List.find_opt (fun vb -> Pnode.equal vb.vb_handle.Dpapi.pnode h.pnode) t.prov_pending

let pass_write t (h : Dpapi.handle) ~off ~data bundle =
  let ( let* ) = Result.bind in
  let alone () = submit t ~acked:false [ item t h ~off ~data bundle ] in
  match data with
  | None ->
      (* provenance-only: merge into this file's pending buffer, else send
         through directly *)
      (match find_pending t h with
      | Some vb ->
          vb.vb_bundle <- List.rev_append bundle vb.vb_bundle;
          Ok (Ctx.current_version t.ctx h.pnode)
      | None -> alone ())
  | Some d ->
      (* would appending [d] (plus its records) overflow the 64 KB client
         block?  flush first so the coalesced writes stay a single
         envelope (headroom for the encoded bundles).  With [piggyback] a
         write to a new file starts a rider buffer instead of flushing,
         so several small files travel in one OP_PASSBATCH. *)
      let incoming = String.length d + Dpapi.bundle_size bundle in
      if incoming > batch_budget then
        (* can never ride an envelope: flush what is queued (order) and
           send straight down — the transaction path takes over *)
        let* _ = flush_prov t in
        alone ()
      else
      let contiguous =
        match find_pending t h with
        | Some vb -> vb.vb_off + vb.vb_data.length = off
        | None -> false
      in
      let room = pending_size t + incoming <= batch_budget in
      let fits = contiguous && room in
      let rides =
        t.piggyback && find_pending t h = None && room
        && List.length t.prov_pending < max_batch_items
      in
      let* _ = if fits || rides then Ok 0 else flush_prov t in
      let vb =
        match find_pending t h with
        | Some vb -> vb
        | None ->
            let vb = { vb_handle = h; vb_off = off; vb_data = no_chunks (); vb_bundle = [] } in
            t.prov_pending <- vb :: t.prov_pending;
            vb
      in
      add_chunk vb.vb_data d;
      vb.vb_bundle <- List.rev_append bundle vb.vb_bundle;
      let* _ = if (not t.piggyback) && String.length d < 4096 then flush_prov t else Ok 0 in
      Ok (Ctx.current_version t.ctx h.pnode)

let pass_freeze t (h : Dpapi.handle) =
  let version, records = Record.freeze t.ctx h.pnode in
  let prev = Option.value (Hashtbl.find_opt t.pending_freezes h.pnode) ~default:[] in
  Hashtbl.replace t.pending_freezes h.pnode (List.rev_append records prev);
  Ok version

let pass_mkobj t =
  let ( let* ) = Result.bind in
  let* pnode = dpapi (rpc t Proto.Op_passmkobj pnode_reply) in
  Ctx.adopt t.ctx pnode ~version:0;
  Ok (Dpapi.handle ~volume:t.mount_name pnode)

let pass_reviveobj t pnode version =
  Result.map
    (Dpapi.handle ~volume:t.mount_name)
    (dpapi (rpc t (Proto.Op_passreviveobj { pnode; version }) pnode_reply))

let pass_sync t (h : Dpapi.handle) =
  (* flush buffered writes, the partition backlog and pending freeze
     records, then sync; EAGAIN while the backlog cannot drain *)
  let ( let* ) = Result.bind in
  let* _ = flush_prov t in
  let* () = drain_backlog t in
  let* _ =
    if Hashtbl.mem t.pending_freezes h.pnode then
      submit t ~acked:false [ item t h ~off:0 ~data:None [] ]
    else Ok 0
  in
  dpapi (rpc t (Proto.Op_passsync { pnode = h.pnode }) unit_reply)

let endpoint t : Dpapi.endpoint =
  {
    pass_read = (fun h ~off ~len -> pass_read t h ~off ~len);
    pass_write = (fun h ~off ~data b -> pass_write t h ~off ~data b);
    pass_freeze = (fun h -> pass_freeze t h);
    pass_mkobj = (fun ~volume:_ -> pass_mkobj t);
    pass_reviveobj = (fun p v -> pass_reviveobj t p v);
    pass_sync = (fun h -> pass_sync t h);
  }
