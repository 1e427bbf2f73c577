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

   Large writes (provenance + data > 64 KB) are encapsulated in
   transactions; the individual steps are exposed so tests can simulate a
   client crash between OP_BEGINTXN and the terminating OP_PASSWRITE. *)

module Dpapi = Pass_core.Dpapi
module Ctx = Pass_core.Ctx
module Record = Pass_core.Record
module Pnode = Pass_core.Pnode

(* Registry-backed instruments. *)
type instruments = {
  rpcs : Telemetry.counter;
  txns : Telemetry.counter;
  inline_writes : Telemetry.counter; (* pass_writes that fit in one OP_PASSWRITE *)
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
   namespace operation. *)
type plain_buf = { pb_ino : Vfs.ino; mutable pb_off : int; pb_data : Buffer.t }

type prov_buf = {
  vb_handle : Dpapi.handle;
  mutable vb_off : int;
  vb_data : Buffer.t;
  mutable vb_bundle : Dpapi.bundle; (* reversed *)
}

(* One provenance write waiting out a partition in the write-behind
   backlog. *)
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
  wb : wb_item Queue.t; (* provenance writes the server couldn't take *)
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

(* [None] = the call timed out [max_attempts] times (server unreachable). *)
let call_opt t req =
  if t.crashed then Some (Proto.R_err Vfs.ECRASH)
  else begin
    Telemetry.incr t.i.rpcs;
    Telemetry.with_span t.i.rpc_latency
      ~now:(fun () -> Simdisk.Clock.now t.net.Proto.clock)
      (fun () ->
        Pvtrace.span t.tracer ~layer:"panfs.client" ~op:(Proto.req_name req)
        @@ fun () ->
        let seq = t.seq in
        t.seq <- seq + 1;
        (* The RPC span is the wire context.  The envelope — context
           included — is built once per logical call, so every
           retransmission carries the same trace and span ids, and the
           server parents the retried work onto the original span. *)
        let c_trace, c_span =
          match Pvtrace.current t.tracer with Some c -> c | None -> (0, 0)
        in
        let c = { Proto.c_client = t.client_id; c_seq = seq; c_trace; c_span; c_req = req } in
        let rec attempt n backoff =
          match Proto.rpc t.net t.handler c with
          | Ok resp -> Some resp
          | Error `Timeout ->
              if n + 1 >= max_attempts then None
              else begin
                Telemetry.incr t.i.retries;
                Simdisk.Clock.advance t.net.Proto.clock backoff;
                attempt (n + 1) (min (2 * backoff) backoff_cap_ns)
              end
        in
        match attempt 0 initial_backoff_ns with
        | Some _ as r -> r
        | None ->
            Pvtrace.set_outcome t.tracer "unreachable";
            None)
  end

let call t req =
  match call_opt t req with
  | Some resp -> resp
  | None -> Proto.R_err Vfs.EIO

let lift_err = function
  | Vfs.ENOENT -> Dpapi.Enoent
  | Vfs.EEXIST -> Dpapi.Eexist
  | Vfs.EINVAL -> Dpapi.Einval
  | Vfs.ESTALE | Vfs.EBADF -> Dpapi.Estale
  | Vfs.ENOSPC -> Dpapi.Enospc
  | Vfs.ECRASH -> Dpapi.Ecrashed
  | Vfs.EAGAIN -> Dpapi.Eagain
  | Vfs.EIO | Vfs.ENOTDIR | Vfs.EISDIR | Vfs.ENOTEMPTY -> Dpapi.Eio

let lower_err = function
  | Dpapi.Enoent -> Vfs.ENOENT
  | Dpapi.Eexist -> Vfs.EEXIST
  | Dpapi.Einval -> Vfs.EINVAL
  | Dpapi.Estale -> Vfs.ESTALE
  | Dpapi.Enospc -> Vfs.ENOSPC
  | Dpapi.Ecrashed -> Vfs.ECRASH
  | Dpapi.Ebadf -> Vfs.EBADF
  | Dpapi.Eagain -> Vfs.EAGAIN
  | Dpapi.Eio | Dpapi.Emsg _ -> Vfs.EIO

(* --- write-behind ------------------------------------------------------------ *)

let flush_plain t =
  match t.plain_pending with
  | None -> Ok ()
  | Some pb ->
      t.plain_pending <- None;
      if Buffer.length pb.pb_data = 0 then Ok ()
      else begin
        match
          call t (Proto.Write { ino = pb.pb_ino; off = pb.pb_off; data = Buffer.contents pb.pb_data })
        with
        | Proto.R_ok -> Ok ()
        | Proto.R_err e -> Error e
        | _ -> Error Vfs.EIO
      end

let buffered_plain_write t ino ~off data =
  let fits =
    match t.plain_pending with
    | Some pb -> pb.pb_ino = ino && pb.pb_off + Buffer.length pb.pb_data = off
    | None -> false
  in
  let ( let* ) = Result.bind in
  let* () = if fits then Ok () else flush_plain t in
  let pb =
    match t.plain_pending with
    | Some pb -> pb
    | None ->
        let pb = { pb_ino = ino; pb_off = off; pb_data = Buffer.create 8192 } in
        t.plain_pending <- Some pb;
        pb
  in
  Buffer.add_string pb.pb_data data;
  (* flush at the 64 KB block size, or immediately for a non-streaming
     (short) write *)
  if Buffer.length pb.pb_data >= Proto.block_limit || String.length data < 4096 then
    flush_plain t
  else Ok ()

(* --- handles ---------------------------------------------------------------- *)

let file_handle t ino =
  match Hashtbl.find_opt t.pnode_cache ino with
  | Some p -> Ok (Dpapi.handle ~volume:t.mount_name p)
  | None -> (
      match call t (Proto.Op_pnode { ino }) with
      | Proto.R_handle { pnode } ->
          Hashtbl.replace t.pnode_cache ino pnode;
          Ok (Dpapi.handle ~volume:t.mount_name pnode)
      | Proto.R_err e -> Error e
      | _ -> Error Vfs.EIO)

(* --- transactions (exposed for crash tests) --------------------------------- *)

let begin_txn t =
  match call t Proto.Op_begintxn with
  | Proto.R_txn id ->
      Telemetry.incr t.i.txns;
      Ok id
  | Proto.R_err e -> Error (lift_err e)
  | _ -> Error Dpapi.Eio

let send_prov_chunk t ~txn chunk =
  match call t (Proto.Op_passprov { txn; chunk }) with
  | Proto.R_ok -> Ok ()
  | Proto.R_err e -> Error (lift_err e)
  | _ -> Error Dpapi.Eio

let end_txn_write t ~txn (h : Dpapi.handle) ~off ~data =
  let endtxn =
    [ Dpapi.entry h [ Record.make Record.Attr.endtxn (Pass_core.Pvalue.Int txn) ] ]
  in
  match
    call t (Proto.Op_passwrite { pnode = h.pnode; off; data; bundle = endtxn; txn = Some txn })
  with
  | Proto.R_version v -> Ok v
  | Proto.R_err e -> Error (lift_err e)
  | _ -> Error Dpapi.Eio

(* Split a bundle into chunks whose encoded size stays under the 64 KB
   client block size.  An entry whose own record list is oversized is
   split into several entries for the same target. *)
let chunk_bundle bundle =
  let budget = Proto.block_limit - 1024 in
  (* first explode oversized entries *)
  let exploded =
    List.concat_map
      (fun (e : Dpapi.bundle_entry) ->
        if Dpapi.bundle_size [ e ] <= budget then [ e ]
        else begin
          let groups = ref [] and current = ref [] and size = ref 0 in
          List.iter
            (fun r ->
              let rsz =
                let buf = Buffer.create 64 in
                Record.encode buf r;
                Buffer.length buf
              in
              if !size + rsz > budget && !current <> [] then begin
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
        if current <> [] && current_size + sz > budget then
          go [ e ] sz (List.rev current :: acc) rest
        else go (e :: current) (current_size + sz) acc rest
  in
  go [] 0 [] exploded

(* --- DPAPI face -------------------------------------------------------------- *)

let take_pending t pnode =
  match Hashtbl.find_opt t.pending_freezes pnode with
  | Some records ->
      Hashtbl.remove t.pending_freezes pnode;
      List.rev records
  | None -> []

let attach_pending t (h : Dpapi.handle) bundle =
  let pending = take_pending t h.pnode in
  if pending = [] then bundle else Dpapi.entry h pending :: bundle

(* The actual wire send: one OP_PASSWRITE, or a transaction when the
   bundle plus data exceed the block size.  [`Timeout] means the server
   never acknowledged (possibly mid-transaction — the server-side
   fragment becomes an orphan Waldo discards); the caller may park the
   write in the backlog and replay it later. *)
let send_passwrite_now t (h : Dpapi.handle) ~off ~data bundle =
  let total = Dpapi.bundle_size bundle + match data with Some d -> String.length d | None -> 0 in
  if total <= Proto.block_limit then begin
    Telemetry.incr t.i.inline_writes;
    match call_opt t (Proto.Op_passwrite { pnode = h.pnode; off; data; bundle; txn = None }) with
    | None -> Error `Timeout
    | Some (Proto.R_version v) -> Ok v
    | Some (Proto.R_err e) -> Error (`Err (lift_err e))
    | Some _ -> Error (`Err Dpapi.Eio)
  end
  else begin
    let step req ok_of =
      match call_opt t req with
      | None -> Error `Timeout
      | Some resp -> (
          match ok_of resp with
          | Some v -> Ok v
          | None -> (
              match resp with
              | Proto.R_err e -> Error (`Err (lift_err e))
              | _ -> Error (`Err Dpapi.Eio)))
    in
    let ( let* ) = Result.bind in
    let abandon r =
      (* a transaction that dies part-way is abandoned: its server-side
         fragment is an orphan for Waldo, and the whole write will be
         replayed under a fresh transaction id *)
      match r with
      | Error `Timeout -> Telemetry.incr t.i.txns_abandoned; r
      | _ -> r
    in
    let* txn =
      step Proto.Op_begintxn (function Proto.R_txn id -> Some id | _ -> None)
    in
    Telemetry.incr t.i.txns;
    abandon
      (let* () =
         List.fold_left
           (fun acc chunk ->
             let* () = acc in
             step (Proto.Op_passprov { txn; chunk }) (function
               | Proto.R_ok -> Some ()
               | _ -> None))
           (Ok ()) (chunk_bundle bundle)
       in
       step
         (Proto.Op_passwrite
            { pnode = h.pnode; off; data;
              bundle =
                [ Dpapi.entry h
                    [ Record.make Record.Attr.endtxn (Pass_core.Pvalue.Int txn) ] ];
              txn = Some txn })
         (function Proto.R_version v -> Some v | _ -> None))
  end

(* --- piggybacked batches ------------------------------------------------------ *)

(* Encoded-size budget for one OP_PASSBATCH envelope (headroom for the
   item framing, mirroring the inline/transaction split). *)
let batch_budget = Proto.block_limit - 1024
let max_batch_items = 16

let item_size (it : wb_item) =
  Dpapi.bundle_size it.wi_bundle
  + match it.wi_data with Some d -> String.length d | None -> 0

(* One OP_PASSBATCH envelope carrying [items] (oldest first, combined
   size within budget).  The whole batch travels under a single sequence
   number, so a retransmitted or duplicated envelope hits the server's
   duplicate-request cache as one unit and no item is ever re-applied.
   [Ok v] = every item applied; [`Err (e, n)] = the first [n] items
   applied, item [n] failed with [e] and the rest were not attempted. *)
let send_batch_now t items =
  Telemetry.incr t.i.batch_rpcs;
  Telemetry.add t.i.batched_writes (List.length items);
  let writes =
    List.map
      (fun (it : wb_item) ->
        { Proto.bi_pnode = it.wi_handle.Dpapi.pnode; bi_off = it.wi_off;
          bi_data = it.wi_data; bi_bundle = it.wi_bundle })
      items
  in
  match call_opt t (Proto.Op_passbatch { writes }) with
  | None -> Error `Timeout
  | Some (Proto.R_batch resps) ->
      let rec walk n last = function
        | [] -> if n = List.length items then Ok last else Error (`Err (Dpapi.Eio, n))
        | Proto.R_version v :: rest -> walk (n + 1) v rest
        | Proto.R_err e :: _ -> Error (`Err (lift_err e, n))
        | _ :: _ -> Error (`Err (Dpapi.Eio, n))
      in
      walk 0 0 resps
  | Some (Proto.R_err e) -> Error (`Err (lift_err e, 0))
  | Some _ -> Error (`Err (Dpapi.Eio, 0))

(* --- write-behind backlog (graceful degradation under partition) ------------- *)

let backlog t = Queue.length t.wb

(* Replay queued writes in FIFO order, piggybacking inline-sized runs
   into one OP_PASSBATCH envelope.  [`Blocked] = the server is still
   unreachable; everything not yet applied stays queued. *)
let drain_backlog_internal t =
  (* longest queue prefix that fits one envelope (never removes) *)
  let batchable_prefix () =
    let rec take seq acc n sz =
      if n >= max_batch_items then List.rev acc
      else
        match Seq.uncons seq with
        | Some (it, rest) ->
            let s = item_size it in
            if s <= batch_budget && sz + s <= batch_budget then
              take rest (it :: acc) (n + 1) (sz + s)
            else List.rev acc
        | None -> List.rev acc
    in
    take (Queue.to_seq t.wb) [] 0 0
  in
  let pop_n n =
    for _ = 1 to n do ignore (Queue.pop t.wb : wb_item) done;
    Telemetry.set t.i.wb_backlog (float_of_int (Queue.length t.wb))
  in
  let rec go () =
    match Queue.peek_opt t.wb with
    | None -> Ok ()
    | Some it -> (
        match if t.piggyback then batchable_prefix () else [] with
        | [] | [ _ ] -> (
            (* a lone or oversized head goes down the single-write path
               (which picks the transaction route when necessary) *)
            match
              send_passwrite_now t it.wi_handle ~off:it.wi_off ~data:it.wi_data it.wi_bundle
            with
            | Ok _ ->
                pop_n 1;
                go ()
            | Error `Timeout -> Error `Blocked
            | Error (`Err e) ->
                (* a hard server error is not transient: surface it rather
                   than wedging the queue behind an unservable item *)
                pop_n 1;
                Error (`Err e))
        | items -> (
            match send_batch_now t items with
            | Ok _ ->
                pop_n (List.length items);
                go ()
            | Error `Timeout -> Error `Blocked
            | Error (`Err (e, applied)) ->
                (* the applied prefix and the failing item leave the
                   queue; items behind them were not attempted and stay *)
                pop_n (applied + 1);
                Error (`Err e)))
  in
  go ()

let enqueue_wb t (h : Dpapi.handle) ~off ~data bundle =
  if Queue.length t.wb >= t.wb_high_water then begin
    Telemetry.incr t.i.backpressure;
    Error Dpapi.Eagain
  end
  else begin
    Telemetry.incr t.i.wb_queued;
    Queue.add { wi_handle = h; wi_off = off; wi_data = data; wi_bundle = bundle } t.wb;
    Telemetry.set t.i.wb_backlog (float_of_int (Queue.length t.wb));
    Ok (Ctx.current_version t.ctx h.pnode)
  end

let enqueue_items t items =
  List.fold_left
    (fun acc (it : wb_item) ->
      match acc with
      | Error _ as e -> e
      | Ok _ -> enqueue_wb t it.wi_handle ~off:it.wi_off ~data:it.wi_data it.wi_bundle)
    (Ok 0) items

let send_passwrite t (h : Dpapi.handle) ~off ~data bundle =
  let bundle = attach_pending t h bundle in
  match drain_backlog_internal t with
  | Error `Blocked ->
      (* still partitioned: preserve ordering by queueing behind the
         existing backlog *)
      enqueue_wb t h ~off ~data bundle
  | Error (`Err e) -> Error e
  | Ok () -> (
      match send_passwrite_now t h ~off ~data bundle with
      | Ok v -> Ok v
      | Error (`Err e) -> Error e
      | Error `Timeout -> enqueue_wb t h ~off ~data bundle)

(* Send an ordered run of independent writes, piggybacking inline-sized
   groups into OP_PASSBATCH envelopes; an oversized item travels alone
   (transaction path).  Timeouts park everything not yet acknowledged in
   the backlog, in order, exactly like the single-write path. *)
let send_items t items =
  match drain_backlog_internal t with
  | Error (`Err e) -> Error e
  | Error `Blocked -> enqueue_items t items
  | Ok () ->
      let groups =
        let rec go cur cur_sz acc = function
          | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
          | it :: rest ->
              let s = item_size it in
              if s > batch_budget then
                go [] 0
                  ([ it ] :: (if cur = [] then acc else List.rev cur :: acc))
                  rest
              else if cur <> [] && (cur_sz + s > batch_budget || List.length cur >= max_batch_items)
              then go [ it ] s (List.rev cur :: acc) rest
              else go (it :: cur) (cur_sz + s) acc rest
        in
        go [] 0 [] items
      in
      let rec send last = function
        | [] -> Ok last
        | group :: gs -> (
            match group with
            | [ (it : wb_item) ] -> (
                match
                  send_passwrite_now t it.wi_handle ~off:it.wi_off ~data:it.wi_data it.wi_bundle
                with
                | Ok v -> send v gs
                | Error (`Err e) -> Error e
                | Error `Timeout -> enqueue_items t (List.concat (group :: gs)))
            | _ -> (
                match send_batch_now t group with
                | Ok v -> send v gs
                | Error (`Err (e, _)) -> Error e
                | Error `Timeout -> enqueue_items t (List.concat (group :: gs))))
      in
      send 0 groups

let drain_backlog t =
  match drain_backlog_internal t with
  | Ok () -> Ok ()
  | Error `Blocked -> Error Dpapi.Eagain
  | Error (`Err e) -> Error e

(* Flush the DPAPI write-behind buffers: one OP_PASSWRITE (or transaction)
   per file when a single file is pending, one OP_PASSBATCH envelope when
   several files' coalesced writes ride together. *)
let flush_prov t =
  match t.prov_pending with
  | [] -> Ok 0
  | [ vb ] ->
      t.prov_pending <- [];
      send_passwrite t vb.vb_handle ~off:vb.vb_off
        ~data:(Some (Buffer.contents vb.vb_data))
        (List.rev vb.vb_bundle)
  | pending ->
      t.prov_pending <- [];
      let items =
        List.rev_map
          (fun vb ->
            { wi_handle = vb.vb_handle; wi_off = vb.vb_off;
              wi_data = Some (Buffer.contents vb.vb_data);
              wi_bundle = attach_pending t vb.vb_handle (List.rev vb.vb_bundle) })
          pending
      in
      send_items t items

(* --- VFS face -------------------------------------------------------------- *)

(* Close-to-open consistency: both write-behind buffers — the plain one
   and the provenance/data riders — flush before any read, getattr or
   namespace operation observes server state. *)
let ops t : Vfs.ops =
  let bad = Error Vfs.EIO in
  let flush_then f =
    match flush_prov t with
    | Error e -> Error (lower_err e)
    | Ok _ -> ( match flush_plain t with Error e -> Error e | Ok () -> f ())
  in
  {
    root = (fun () -> Ext3.root_ino);
    lookup =
      (fun ~dir name ->
        flush_then (fun () ->
            match call t (Proto.Lookup { dir; name }) with
            | Proto.R_ino ino -> Ok ino
            | Proto.R_err e -> Error e
            | _ -> bad));
    create =
      (fun ~dir name kind ->
        flush_then (fun () ->
            match call t (Proto.Create { dir; name; kind }) with
            | Proto.R_ino ino -> Ok ino
            | Proto.R_err e -> Error e
            | _ -> bad));
    unlink =
      (fun ~dir name ->
        flush_then (fun () ->
            match call t (Proto.Remove { dir; name }) with
            | Proto.R_ok -> Ok ()
            | Proto.R_err e -> Error e
            | _ -> bad));
    rename =
      (fun ~src_dir ~src_name ~dst_dir ~dst_name ->
        flush_then (fun () ->
            match call t (Proto.Rename { src_dir; src_name; dst_dir; dst_name }) with
            | Proto.R_ok -> Ok ()
            | Proto.R_err e -> Error e
            | _ -> bad));
    read =
      (fun ino ~off ~len ->
        flush_then (fun () ->
            match call t (Proto.Read { ino; off; len }) with
            | Proto.R_data d -> Ok d
            | Proto.R_err e -> Error e
            | _ -> bad));
    write = (fun ino ~off data -> buffered_plain_write t ino ~off data);
    truncate =
      (fun ino size ->
        flush_then (fun () ->
            match call t (Proto.Truncate { ino; size }) with
            | Proto.R_ok -> Ok ()
            | Proto.R_err e -> Error e
            | _ -> bad));
    getattr =
      (fun ino ->
        flush_then (fun () ->
            match call t (Proto.Getattr { ino }) with
            | Proto.R_attr st -> Ok st
            | Proto.R_err e -> Error e
            | _ -> bad));
    readdir =
      (fun ino ->
        flush_then (fun () ->
            match call t (Proto.Readdir { ino }) with
            | Proto.R_names names -> Ok names
            | Proto.R_err e -> Error e
            | _ -> bad));
    fsync =
      (fun ino ->
        flush_then (fun () ->
            match call t (Proto.Commit { ino }) with
            | Proto.R_ok -> Ok ()
            | Proto.R_err e -> Error e
            | _ -> bad));
    sync =
      (fun () ->
        match flush_prov t with
        | Error e -> Error (lower_err e)
        | Ok _ -> flush_plain t);
  }

let pass_read t (h : Dpapi.handle) ~off ~len =
  (match flush_prov t with Ok _ -> () | Error _ -> ());
  (match drain_backlog t with Ok () -> () | Error _ -> ());
  (match flush_plain t with Ok () -> () | Error _ -> ());
  match call t (Proto.Op_passread { pnode = h.pnode; off; len }) with
  | Proto.R_passread { data; pnode; version } ->
      Ctx.adopt t.ctx pnode ~version;
      (* the local view may be ahead (local freezes): serve the local
         version, no server trip needed (§6.1.2) *)
      Ok { Dpapi.data; r_pnode = pnode; r_version = Ctx.current_version t.ctx pnode }
  | Proto.R_err e -> Error (lift_err e)
  | _ -> Error Dpapi.Eio

let pending_size t =
  List.fold_left
    (fun n vb -> n + Buffer.length vb.vb_data + Dpapi.bundle_size vb.vb_bundle)
    0 t.prov_pending

let find_pending t (h : Dpapi.handle) =
  List.find_opt (fun vb -> Pnode.equal vb.vb_handle.Dpapi.pnode h.pnode) t.prov_pending

let pass_write t (h : Dpapi.handle) ~off ~data bundle =
  let ( let* ) = Result.bind in
  match data with
  | None ->
      (* provenance-only: merge into this file's pending buffer, else send
         through directly *)
      (match find_pending t h with
      | Some vb ->
          vb.vb_bundle <- List.rev_append bundle vb.vb_bundle;
          Ok (Ctx.current_version t.ctx h.pnode)
      | None -> send_passwrite t h ~off ~data bundle)
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
        send_passwrite t h ~off ~data bundle
      else
      let contiguous =
        match find_pending t h with
        | Some vb -> vb.vb_off + Buffer.length vb.vb_data = off
        | None -> false
      in
      let room = pending_size t + incoming <= batch_budget in
      let fits = contiguous && room in
      let rides =
        t.piggyback && find_pending t h = None && room
        && List.length t.prov_pending < max_batch_items
      in
      let* () =
        if fits || rides then Ok ()
        else match flush_prov t with Ok _ -> Ok () | Error e -> Error e
      in
      let vb =
        match find_pending t h with
        | Some vb -> vb
        | None ->
            let vb = { vb_handle = h; vb_off = off; vb_data = Buffer.create 8192; vb_bundle = [] } in
            t.prov_pending <- vb :: t.prov_pending;
            vb
      in
      Buffer.add_string vb.vb_data d;
      vb.vb_bundle <- List.rev_append bundle vb.vb_bundle;
      if (not t.piggyback) && String.length d < 4096 then
        let* _v = flush_prov t in
        Ok (Ctx.current_version t.ctx h.pnode)
      else Ok (Ctx.current_version t.ctx h.pnode)

let pass_freeze t (h : Dpapi.handle) =
  let old_version = Ctx.current_version t.ctx h.pnode in
  let version = Ctx.freeze t.ctx h.pnode in
  let records =
    [ Record.make Record.Attr.freeze (Pass_core.Pvalue.Int version);
      Record.input_of h.pnode old_version ]
  in
  let prev = Option.value (Hashtbl.find_opt t.pending_freezes h.pnode) ~default:[] in
  Hashtbl.replace t.pending_freezes h.pnode (List.rev_append records prev);
  Ok version

let pass_mkobj t =
  match call t Proto.Op_passmkobj with
  | Proto.R_handle { pnode } ->
      Ctx.adopt t.ctx pnode ~version:0;
      Ok (Dpapi.handle ~volume:t.mount_name pnode)
  | Proto.R_err e -> Error (lift_err e)
  | _ -> Error Dpapi.Eio

let pass_reviveobj t pnode version =
  match call t (Proto.Op_passreviveobj { pnode; version }) with
  | Proto.R_handle { pnode } -> Ok (Dpapi.handle ~volume:t.mount_name pnode)
  | Proto.R_err e -> Error (lift_err e)
  | _ -> Error Dpapi.Eio

let pass_sync t (h : Dpapi.handle) =
  (* flush buffered writes, the partition backlog and pending freeze
     records, then sync; EAGAIN while the backlog cannot drain *)
  let ( let*! ) r f = match r with Ok _ -> f () | Error e -> Error e in
  let*! () = flush_prov t in
  let*! () = drain_backlog t in
  let pending = take_pending t h.pnode in
  let ( let* ) = Result.bind in
  let* () =
    if pending = [] then Ok ()
    else
      match
        call t
          (Proto.Op_passwrite
             { pnode = h.pnode; off = 0; data = None; bundle = [ Dpapi.entry h pending ];
               txn = None })
      with
      | Proto.R_version _ -> Ok ()
      | Proto.R_err e -> Error (lift_err e)
      | _ -> Error Dpapi.Eio
  in
  match call t (Proto.Op_passsync { pnode = h.pnode }) with
  | Proto.R_ok -> Ok ()
  | Proto.R_err e -> Error (lift_err e)
  | _ -> Error Dpapi.Eio

(* Close-to-open flush hook (for [Kernel.mount ~flush]): push both
   write-behind buffers now.  A partition parks provenance in the backlog
   instead of failing the close. *)
let flush t =
  match flush_prov t with
  | Error e -> Error (lower_err e)
  | Ok _ -> flush_plain t

let endpoint t : Dpapi.endpoint =
  {
    pass_read = (fun h ~off ~len -> pass_read t h ~off ~len);
    pass_write = (fun h ~off ~data b -> pass_write t h ~off ~data b);
    pass_freeze = (fun h -> pass_freeze t h);
    pass_mkobj = (fun ~volume:_ -> pass_mkobj t);
    pass_reviveobj = (fun p v -> pass_reviveobj t p v);
    pass_sync = (fun h -> pass_sync t h);
  }
