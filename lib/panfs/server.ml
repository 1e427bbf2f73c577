(* The NFS server.

   In plain mode it exports an ext3sim volume.  In PA mode the exported
   volume is Lasagna-stacked and the server runs its own analyzer above
   Lasagna — the paper's §6.1.1 argument: with two clients sharing one
   server, only the server sees all related provenance records, so there
   must be an analyzer on the server as well (and one on every client);
   both speak DPAPI, which is exactly what makes the stacking work.

   Transactions: OP_BEGINTXN allocates an id and logs a BEGINTXN record;
   OP_PASSPROV chunks and the terminating OP_PASSWRITE are logged tagged
   with the id; Waldo only ingests a transaction once its ENDTXN record
   arrives, so a client crash mid-transaction leaves an orphan that Waldo
   discards (recovery story of §6.1.2). *)

module Dpapi = Pass_core.Dpapi
module Ctx = Pass_core.Ctx
module Record = Pass_core.Record
module Pvalue = Pass_core.Pvalue
module Analyzer = Pass_core.Analyzer
module Clock = Simdisk.Clock
module Disk = Simdisk.Disk

type mode = Plain | Pass_enabled

(* Server-side instruments (the embedded analyzer / Lasagna / Waldo / disk
   register their own when a registry is threaded through [create]). *)
type instruments = {
  requests : Telemetry.counter;
  txns_opened : Telemetry.counter;
  drc_hits : Telemetry.counter;
  drc_misses : Telemetry.counter;
  drc_size : Telemetry.gauge; (* nfs.drc.size: cached replies right now *)
}

let instruments registry =
  {
    requests = Telemetry.counter ?registry "panfs.server.requests";
    txns_opened = Telemetry.counter ?registry "panfs.server.txns_opened";
    drc_hits = Telemetry.counter ?registry "nfs.drc.hits";
    drc_misses = Telemetry.counter ?registry "nfs.drc.misses";
    drc_size = Telemetry.gauge ?registry "nfs.drc.size";
  }

type t = {
  mode : mode;
  clock : Clock.t;
  disk : Disk.t;
  ext3 : Ext3.t;
  export : Vfs.ops; (* what clients see *)
  lasagna : Lasagna.t option;
  analyzer : Analyzer.t option;
  waldo : Waldo.t option;
  ctx : Ctx.t;
  volume : string;
  tracer : Pvtrace.t;
  i : instruments;
  mutable next_txn : int;
  mutable open_txns : int list;
  (* NFSv4-style duplicate-request cache: a retransmission (same client
     id + sequence number) replays the cached reply instead of
     re-executing the operation, which is what keeps non-idempotent ops
     (Create, Remove, Op_passwrite) exactly-once under retry *)
  drc : (int * int, Proto.resp) Hashtbl.t;
  drc_order : (int * int) Queue.t;
  drc_capacity : int;
}

let create ?registry ?fault ?(tracer = Pvtrace.disabled) ~mode ~clock ~machine ~volume () =
  Pvtrace.set_now tracer (fun () -> Clock.now clock);
  let i = instruments registry in
  let disk = Disk.create ?registry ?fault ~clock () in
  let ext3 = Ext3.format disk in
  let ctx = Ctx.create ~machine in
  match mode with
  | Plain ->
      {
        mode; clock; disk; ext3; export = Ext3.ops ext3; lasagna = None;
        analyzer = None; waldo = None; ctx; volume; tracer; i; next_txn = 1; open_txns = [];
        drc = Hashtbl.create 1024; drc_order = Queue.create (); drc_capacity = 512;
      }
  | Pass_enabled ->
      Ext3.set_cache_capacity ext3 2048;
      let lasagna =
        Lasagna.create ?registry ~now:(fun () -> Clock.now clock) ~tracer
          ~lower:(Ext3.ops ext3) ~ctx ~volume ~charge:(Clock.advance clock) ()
      in
      let analyzer =
        Analyzer.create ?registry ~charge:(Clock.advance clock) ~tracer ~ctx
          ~lower:(Dpapi.traced ~tracer ~layer:"lasagna" (Lasagna.endpoint lasagna)) ()
      in
      let waldo = Waldo.create ?registry ~tracer ~lower:(Ext3.ops ext3) () in
      Waldo.attach waldo lasagna;
      {
        mode; clock; disk; ext3; export = Lasagna.ops lasagna; lasagna = Some lasagna;
        analyzer = Some analyzer; waldo = Some waldo; ctx; volume; tracer; i; next_txn = 1;
        open_txns = [];
        drc = Hashtbl.create 1024; drc_order = Queue.create (); drc_capacity = 512;
      }

let ctx t = t.ctx
let waldo t = t.waldo
let disk t = t.disk
let ext3 t = t.ext3

let db t = Option.map Waldo.db t.waldo

let drain t =
  match (t.waldo, t.lasagna) with
  | Some w, Some l -> Waldo.finalize w l
  | _ -> 0

let err e = Proto.R_err e

let dpapi_err (e : Dpapi.error) =
  err
    (match e with
    | Dpapi.Enoent -> Vfs.ENOENT
    | Dpapi.Eexist -> Vfs.EEXIST
    | Dpapi.Einval -> Vfs.EINVAL
    | Dpapi.Estale -> Vfs.ESTALE
    | Dpapi.Enospc -> Vfs.ENOSPC
    | Dpapi.Ecrashed -> Vfs.ECRASH
    | Dpapi.Ebadf -> Vfs.EBADF
    | Dpapi.Eagain -> Vfs.EAGAIN
    | Dpapi.Eio | Dpapi.Emsg _ -> Vfs.EIO)

(* Client-side freezes arrive as FREEZE records (§6.1.2: freeze is a
   record type, not an operation, so it stays ordered with respect to the
   writes it protects).  Fold them into the server's version view before
   the analyzer sees the bundle. *)
let apply_client_freezes t bundle =
  List.iter
    (fun (e : Dpapi.bundle_entry) ->
      List.iter
        (fun (r : Record.t) ->
          match r.value with
          | Pvalue.Int v when String.equal r.attr Record.Attr.freeze ->
              Ctx.adopt t.ctx e.target.pnode ~version:v
          | _ -> ())
        e.records)
    bundle

(* Retarget handles to this server's volume (clients name the volume by
   their mount point). *)
let localize t (h : Dpapi.handle) = { h with Dpapi.volume = Some t.volume }

let localize_bundle t bundle =
  List.map (fun (e : Dpapi.bundle_entry) -> { e with Dpapi.target = localize t e.target }) bundle

(* NFS metadata operations are synchronous: the server must make the
   change stable (journal flush) before replying.  Charged per namespace
   operation; this is why the paper's NFS baselines run so much longer
   than the local ones for metadata-heavy workloads. *)
let stable_metadata_ns = 2_800_000

let rec handle_req t (req : Proto.req) : Proto.resp =
  Telemetry.incr t.i.requests;
  (match req with
  | Proto.Create _ | Proto.Remove _ | Proto.Rename _ | Proto.Truncate _ ->
      Clock.advance t.clock stable_metadata_ns
  | _ -> ());
  match req with
  | Proto.Lookup { dir; name } -> (
      match t.export.lookup ~dir name with Ok ino -> R_ino ino | Error e -> err e)
  | Proto.Create { dir; name; kind } -> (
      match t.export.create ~dir name kind with Ok ino -> R_ino ino | Error e -> err e)
  | Proto.Remove { dir; name } -> (
      match t.export.unlink ~dir name with Ok () -> R_ok | Error e -> err e)
  | Proto.Rename { src_dir; src_name; dst_dir; dst_name } -> (
      match t.export.rename ~src_dir ~src_name ~dst_dir ~dst_name with
      | Ok () -> R_ok
      | Error e -> err e)
  | Proto.Getattr { ino } -> (
      match t.export.getattr ino with Ok st -> R_attr st | Error e -> err e)
  | Proto.Readdir { ino } -> (
      match t.export.readdir ino with Ok names -> R_names names | Error e -> err e)
  | Proto.Read { ino; off; len } -> (
      match t.export.read ino ~off ~len with Ok d -> R_data d | Error e -> err e)
  | Proto.Write { ino; off; data } -> (
      match t.export.write ino ~off data with Ok () -> R_ok | Error e -> err e)
  | Proto.Truncate { ino; size } -> (
      match t.export.truncate ino size with Ok () -> R_ok | Error e -> err e)
  | Proto.Commit { ino } -> (
      match t.export.fsync ino with Ok () -> R_ok | Error e -> err e)
  | Proto.Op_passread { pnode; off; len } -> (
      match t.lasagna with
      | None -> err Vfs.EINVAL
      | Some l -> (
          let ep = Lasagna.endpoint l in
          match ep.pass_read (Dpapi.handle ~volume:t.volume pnode) ~off ~len with
          | Ok r -> R_passread { data = r.Dpapi.data; pnode = r.r_pnode; version = r.r_version }
          | Error e -> dpapi_err e))
  | Proto.Op_passwrite { pnode; off; data; bundle; txn } -> (
      match (t.lasagna, t.analyzer) with
      | Some l, Some an -> (
          let h = Dpapi.handle ~volume:t.volume pnode in
          let bundle = localize_bundle t bundle in
          apply_client_freezes t bundle;
          (match txn with
          | Some id ->
              t.open_txns <- List.filter (fun x -> x <> id) t.open_txns;
              (* transactional writes bypass the analyzer's elision so the
                 ENDTXN marker always reaches the log *)
              (match Lasagna.write_txn_bundle ~txn:id l h ~off ~data bundle with
              | Ok v -> R_version v
              | Error e -> dpapi_err e)
          | None -> (
              let ep =
                Dpapi.traced ~tracer:t.tracer ~layer:"analyzer"
                  (Analyzer.endpoint an)
              in
              match ep.pass_write h ~off ~data bundle with
              | Ok v -> R_version v
              | Error e -> dpapi_err e)))
      | _ -> err Vfs.EINVAL)
  | Proto.Op_begintxn -> (
      match t.lasagna with
      | None -> err Vfs.EINVAL
      | Some l -> (
          let id = t.next_txn in
          t.next_txn <- id + 1;
          t.open_txns <- id :: t.open_txns;
          Telemetry.incr t.i.txns_opened;
          (* log the BEGINTXN record at the server (§6.1.2) *)
          let marker_h = Dpapi.handle ~volume:t.volume (Ctx.fresh t.ctx) in
          let marker =
            [ Dpapi.entry marker_h [ Record.make Record.Attr.begintxn (Pvalue.Int id) ] ]
          in
          match Lasagna.write_txn_bundle ~txn:id l marker_h ~off:0 ~data:None marker with
          | Ok _ -> R_txn id
          | Error e -> dpapi_err e))
  | Proto.Op_passprov { txn; chunk } -> (
      match t.lasagna with
      | None -> err Vfs.EINVAL
      | Some l -> (
          let chunk = localize_bundle t chunk in
          apply_client_freezes t chunk;
          match
            Lasagna.write_txn_bundle ~txn l
              (Dpapi.handle ~volume:t.volume (Ctx.fresh t.ctx))
              ~off:0 ~data:None chunk
          with
          | Ok _ -> R_ok
          | Error e -> dpapi_err e))
  | Proto.Op_passmkobj -> (
      match t.lasagna with
      | None -> err Vfs.EINVAL
      | Some l -> (
          match (Lasagna.endpoint l).pass_mkobj ~volume:(Some t.volume) with
          | Ok h -> R_handle { pnode = h.Dpapi.pnode }
          | Error e -> dpapi_err e))
  | Proto.Op_passreviveobj { pnode; version } -> (
      match t.lasagna with
      | None -> err Vfs.EINVAL
      | Some l -> (
          match (Lasagna.endpoint l).pass_reviveobj pnode version with
          | Ok h -> R_handle { pnode = h.Dpapi.pnode }
          | Error e -> dpapi_err e))
  | Proto.Op_passsync { pnode } -> (
      match t.lasagna with
      | None -> err Vfs.EINVAL
      | Some l -> (
          match (Lasagna.endpoint l).pass_sync (Dpapi.handle ~volume:t.volume pnode) with
          | Ok () -> R_ok
          | Error e -> dpapi_err e))
  | Proto.Op_pnode { ino } -> (
      match t.lasagna with
      | None -> err Vfs.EINVAL
      | Some l -> (
          match Lasagna.file_handle l ino with
          | Ok h -> R_handle { pnode = h.Dpapi.pnode }
          | Error e -> err e))
  | Proto.Op_passbatch { writes } ->
      (* apply in order, stopping at the first error: each item is
         processed exactly like a non-transactional OP_PASSWRITE, and the
         whole batch shares the caller's DRC entry so a replayed envelope
         replays the cached replies instead of re-applying any item *)
      let rec go acc = function
        | [] -> Proto.R_batch (List.rev acc)
        | (it : Proto.batch_item) :: rest -> (
            match
              handle_req t
                (Proto.Op_passwrite
                   { pnode = it.bi_pnode; off = it.bi_off; data = it.bi_data;
                     bundle = it.bi_bundle; txn = None })
            with
            | Proto.R_err _ as e -> Proto.R_batch (List.rev (e :: acc))
            | resp -> go (resp :: acc) rest)
      in
      go [] writes

let handle t (c : Proto.call) : Proto.resp =
  (* Adopt the wire-carried context: every span below — including the
     whole server-side analyzer/Lasagna chain — parents onto the client
     RPC span that caused it, across retries and duplicate deliveries
     (the envelope, context included, is byte-identical on replay). *)
  Pvtrace.with_remote_parent t.tracer ~trace:c.Proto.c_trace ~span:c.Proto.c_span
  @@ fun () ->
  Pvtrace.span t.tracer ~layer:"panfs.server" ~op:(Proto.req_name c.Proto.c_req)
  @@ fun () ->
  let key = (c.Proto.c_client, c.Proto.c_seq) in
  match Hashtbl.find_opt t.drc key with
  | Some resp ->
      Telemetry.incr t.i.drc_hits;
      Pvtrace.set_outcome t.tracer "cached";
      resp
  | None ->
      Telemetry.incr t.i.drc_misses;
      let resp = handle_req t c.Proto.c_req in
      (* a reply is a durability promise: the client drops its copy of any
         provenance this request carried, so Lasagna's queued WAP frames
         must reach the disk before the response leaves the server *)
      let resp =
        match t.lasagna with
        | None -> resp
        | Some l -> (
            match resp with
            | Proto.R_err _ -> resp
            | _ -> ( match Lasagna.commit_log l with Ok () -> resp | Error e -> err e))
      in
      Hashtbl.replace t.drc key resp;
      Queue.add key t.drc_order;
      if Queue.length t.drc_order > t.drc_capacity then
        Hashtbl.remove t.drc (Queue.pop t.drc_order);
      Telemetry.set t.i.drc_size (float_of_int (Hashtbl.length t.drc));
      resp
