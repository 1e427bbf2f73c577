(* The NFS server.

   Its volume is built by Volume, exactly as a local machine's is: plain
   ext3sim in plain mode; in PA mode Lasagna over ext3 with a Waldo
   attached, and the server runs its own analyzer above Lasagna — the
   paper's §6.1.1 argument: with two clients sharing one server, only the
   server sees all related provenance records, so there must be an
   analyzer on the server as well (and one on every client); both speak
   DPAPI, which is exactly what makes the stacking work.

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

(* Server-side instruments (the embedded analyzer and the volume's
   Lasagna / Waldo / disk register their own into the same registry). *)
type instruments = {
  requests : Telemetry.counter;
  txns_opened : Telemetry.counter;
  drc_hits : Telemetry.counter;
  drc_misses : Telemetry.counter;
  drc_size : Telemetry.gauge; (* nfs.drc.size: cached replies right now *)
}

let instruments registry =
  {
    requests = Telemetry.counter ~registry "panfs.server.requests";
    txns_opened = Telemetry.counter ~registry "panfs.server.txns_opened";
    drc_hits = Telemetry.counter ~registry "nfs.drc.hits";
    drc_misses = Telemetry.counter ~registry "nfs.drc.misses";
    drc_size = Telemetry.gauge ~registry "nfs.drc.size";
  }

(* What a [Pass_enabled] server runs above its volume's Lasagna: its own
   analyzer (both ends of the protocol need one, §6.1.1).  The requests
   that bypass the analyzer — transactional writes, reads, object
   lifecycle — go to Lasagna directly, untraced.  A [Plain] server has
   none. *)
type pass = {
  lasagna : Lasagna.t;
  lasagna_ep : Dpapi.endpoint;
  analyzer_ep : Dpapi.endpoint; (* traced as the "analyzer" layer *)
}

(* Duplicate-request-cache keys: (client id, sequence number), compared
   as ints rather than by polymorphic hash and equality on the tuple. *)
module Drc = Hashtbl.Make (struct
  type t = int * int

  let equal (c1, s1) (c2, s2) = Int.equal c1 c2 && Int.equal s1 s2
  let hash (client, seq) = ((client * 65599) + seq) land max_int
end)

type t = {
  clock : Clock.t;
  vol : Volume.t;
  export : Vfs.ops; (* what clients see *)
  pass : pass option;
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
  drc : Proto.resp Drc.t;
  drc_order : (int * int) Queue.t;
  drc_capacity : int;
}

let create ?(registry = Telemetry.create ()) ?(fault = Fault.none)
    ?(tracer = Pvtrace.disabled) ~mode ~clock ~machine ~volume () =
  Pvtrace.set_now tracer (fun () -> Clock.now clock);
  let i = instruments registry in
  let ctx = Ctx.create ~machine in
  let vol, storage_ep =
    Volume.create ~registry ~fault ~tracer ~clock ~ctx ~group_commit:true
      ~pass:(mode = Pass_enabled) volume
  in
  let pass =
    match (vol.v_lasagna, storage_ep) with
    | Some lasagna, Some lower ->
        let analyzer =
          Analyzer.create ~registry ~charge:(Clock.advance clock) ~tracer ~ctx ~lower ()
        in
        Some
          { lasagna; lasagna_ep = Lasagna.endpoint lasagna;
            analyzer_ep = Dpapi.traced ~tracer ~layer:"analyzer" (Analyzer.endpoint analyzer) }
    | _ -> None
  in
  {
    clock; vol; pass; ctx; volume; tracer; i;
    export = Volume.ops vol;
    next_txn = 1; open_txns = [];
    drc = Drc.create 1024; drc_order = Queue.create (); drc_capacity = 512;
  }

let ctx t = t.ctx
let waldo t = t.vol.v_waldo
let disk t = t.vol.v_disk
let ext3 t = t.vol.v_ext3
let db t = Volume.db t.vol
let drain t = Volume.drain t.vol

let err e = Proto.R_err e

(* Reply with [ok v], or with the errno of a failed VFS / DPAPI call. *)
let vfs ok = function Ok v -> ok v | Error e -> err e
let dpapi ok = function Ok v -> ok v | Error e -> err (Dpapi.to_errno e)

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
  let ok () = Proto.R_ok and ino ino = Proto.R_ino ino in
  let handle_of pnode = Dpapi.handle ~volume:t.volume pnode in
  let pnode_of (h : Dpapi.handle) = Proto.R_handle { pnode = h.pnode } in
  match (req, t.pass) with
  | Proto.Lookup { dir; name }, _ -> vfs ino (t.export.lookup ~dir name)
  | Proto.Create { dir; name; kind }, _ -> vfs ino (t.export.create ~dir name kind)
  | Proto.Remove { dir; name }, _ -> vfs ok (t.export.unlink ~dir name)
  | Proto.Rename { src_dir; src_name; dst_dir; dst_name }, _ ->
      vfs ok (t.export.rename ~src_dir ~src_name ~dst_dir ~dst_name)
  | Proto.Getattr { ino }, _ -> vfs (fun st -> Proto.R_attr st) (t.export.getattr ino)
  | Proto.Readdir { ino }, _ -> vfs (fun names -> Proto.R_names names) (t.export.readdir ino)
  | Proto.Read { ino; off; len }, _ -> vfs (fun d -> Proto.R_data d) (t.export.read ino ~off ~len)
  | Proto.Write { ino; off; data }, _ -> vfs ok (t.export.write ino ~off data)
  | Proto.Truncate { ino; size }, _ -> vfs ok (t.export.truncate ino size)
  | Proto.Commit { ino }, _ -> vfs ok (t.export.fsync ino)
  (* every PASS operation needs the PASS stack *)
  | _, None -> err Vfs.EINVAL
  | Proto.Op_passread { pnode; off; len }, Some p ->
      dpapi
        (fun (r : Dpapi.read_result) ->
          Proto.R_passread { data = r.data; pnode = r.r_pnode; version = r.r_version })
        (p.lasagna_ep.pass_read (handle_of pnode) ~off ~len)
  | Proto.Op_passwrite { pnode; off; data; bundle; txn }, Some p -> (
      let h = handle_of pnode in
      let bundle = localize_bundle t bundle in
      apply_client_freezes t bundle;
      let version v = Proto.R_version v in
      match txn with
      | Some id ->
          t.open_txns <- List.filter (fun x -> x <> id) t.open_txns;
          (* transactional writes bypass the analyzer's elision so the
             ENDTXN marker always reaches the log *)
          dpapi version (Lasagna.write_txn_bundle ~txn:id p.lasagna h ~off ~data bundle)
      | None -> dpapi version (p.analyzer_ep.pass_write h ~off ~data bundle))
  | Proto.Op_begintxn, Some p ->
      let id = t.next_txn in
      t.next_txn <- id + 1;
      t.open_txns <- id :: t.open_txns;
      Telemetry.incr t.i.txns_opened;
      (* log the BEGINTXN record at the server (§6.1.2) *)
      let marker_h = handle_of (Ctx.fresh t.ctx) in
      let marker =
        [ Dpapi.entry marker_h [ Record.make Record.Attr.begintxn (Pvalue.Int id) ] ]
      in
      dpapi
        (fun _ -> Proto.R_txn id)
        (Lasagna.write_txn_bundle ~txn:id p.lasagna marker_h ~off:0 ~data:None marker)
  | Proto.Op_passprov { txn; chunk }, Some p ->
      let chunk = localize_bundle t chunk in
      apply_client_freezes t chunk;
      dpapi
        (fun _ -> Proto.R_ok)
        (Lasagna.write_txn_bundle ~txn p.lasagna (handle_of (Ctx.fresh t.ctx)) ~off:0
           ~data:None chunk)
  | Proto.Op_passmkobj, Some p ->
      dpapi pnode_of (p.lasagna_ep.pass_mkobj ~volume:(Some t.volume))
  | Proto.Op_passreviveobj { pnode; version }, Some p ->
      dpapi pnode_of (p.lasagna_ep.pass_reviveobj pnode version)
  | Proto.Op_passsync { pnode }, Some p -> dpapi ok (p.lasagna_ep.pass_sync (handle_of pnode))
  | Proto.Op_pnode { ino }, Some p -> vfs pnode_of (Lasagna.file_handle p.lasagna ino)
  | Proto.Op_passbatch { writes }, Some _ ->
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
     (a replay redelivers the same envelope value, context included). *)
  Pvtrace.with_remote_parent t.tracer ~trace:c.Proto.c_trace ~span:c.Proto.c_span
  @@ fun () ->
  Pvtrace.span t.tracer ~layer:"panfs.server" ~op:(Proto.req_name c.Proto.c_req)
  @@ fun () ->
  let key = (c.Proto.c_client, c.Proto.c_seq) in
  match Drc.find_opt t.drc key with
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
        match (t.pass, resp) with
        | None, _ | _, Proto.R_err _ -> resp
        | Some p, _ -> vfs (fun () -> resp) (Lasagna.commit_log p.lasagna)
      in
      Drc.replace t.drc key resp;
      Queue.add key t.drc_order;
      if Queue.length t.drc_order > t.drc_capacity then
        Drc.remove t.drc (Queue.pop t.drc_order);
      Telemetry.set t.i.drc_size (float_of_int (Drc.length t.drc));
      resp
