(* Waldo (paper §5.6): the user-level daemon that moves provenance from the
   WAP logs into the database and serves the query engine.

   The kernel closes a log when it exceeds a maximum size or goes dormant;
   Waldo is notified (inotify in the paper, a callback here), processes
   the log, and removes it.  Waldo also resolves PA-NFS transactions:
   bundles tagged with a transaction id are buffered until the ENDTXN
   record arrives; orphaned transactions — a client that crashed after
   OP_BEGINTXN but before completing — are discarded at finalize time,
   which is exactly the recovery story of Section 6.1.2. *)

module Pnode = Pass_core.Pnode
module Pvalue = Pass_core.Pvalue
module Record = Pass_core.Record
module Dpapi = Pass_core.Dpapi

(* Registry-backed instruments. *)
type instruments = {
  logs_processed : Telemetry.counter;
  frames_ingested : Telemetry.counter;
  records_ingested : Telemetry.counter;
  txns_committed : Telemetry.counter;
  txns_orphaned : Telemetry.counter;
  checkpoints : Telemetry.counter;
  logs_truncated : Telemetry.counter;
  ckpt_staleness : Telemetry.gauge; (* waldo.frames_since_ckpt *)
  txns_pending : Telemetry.gauge; (* waldo.pending_txns *)
}

(* When to take a checkpoint.  [Disabled] preserves the original
   behaviour: every processed log is removed immediately and nothing is
   snapshotted, so recovery replays whatever logs remain.  [Manual] and
   [Every_frames] switch to retention mode — processed logs stay on disk
   until a durable checkpoint covers them. *)
type policy = Disabled | Manual | Every_frames of int

type t = {
  mutable db : Provdb.t; (* replaced by checkpoint compaction and recover *)
  lower : Vfs.ops; (* the file system holding the .pass directory *)
  ingest_version : (Pnode.t, int) Hashtbl.t; (* version tracking during ingest *)
  pending_txns : (int, Dpapi.bundle list ref) Hashtbl.t;
  tracer : Pvtrace.t;
  registry : Telemetry.registry option;
  policy : policy;
  compact_keep : int option; (* versions per node kept hot; None = all *)
  checkpoint_dir : string;
  mutable gen : int; (* generation of the last committed checkpoint *)
  mutable next_watermark : int; (* 1 + highest fully-ingested log seq *)
  mutable archives : (string * string) list; (* (name, digest), oldest first *)
  mutable frames_since_ckpt : int;
  i : instruments;
}

let create ?registry ?(tracer = Pvtrace.disabled) ?(policy = Disabled)
    ?compact_keep ?(checkpoint_dir = "/.waldo") ~lower () =
  let c name = Telemetry.counter ?registry ("waldo." ^ name) in
  let g name = Telemetry.gauge ?registry ("waldo." ^ name) in
  {
    db = Provdb.create ();
    lower;
    ingest_version = Hashtbl.create 1024;
    pending_txns = Hashtbl.create 16;
    tracer;
    registry;
    policy;
    compact_keep;
    checkpoint_dir;
    gen = 0;
    next_watermark = 0;
    archives = [];
    frames_since_ckpt = 0;
    i =
      {
        logs_processed = c "logs_processed";
        frames_ingested = c "frames_ingested";
        records_ingested = c "records_ingested";
        txns_committed = c "txns_committed";
        txns_orphaned = c "txns_orphaned";
        checkpoints = c "checkpoints";
        logs_truncated = c "logs_truncated";
        ckpt_staleness = g "frames_since_ckpt";
        txns_pending = g "pending_txns";
      };
  }

let db t = t.db

let cur_version t pnode =
  Option.value (Hashtbl.find_opt t.ingest_version pnode) ~default:0

let ingest_record t pnode (record : Record.t) =
  Telemetry.incr t.i.records_ingested;
  (* FREEZE records advance the ingest-side version: subsequent records for
     this object belong to the new version.  The freeze's own records (the
     marker and the version edge) are attributed to the new version. *)
  (match record.value with
  | Pvalue.Int v when String.equal record.attr Record.Attr.freeze ->
      Hashtbl.replace t.ingest_version pnode v
  | _ -> ());
  Provdb.add_record t.db pnode ~version:(cur_version t pnode) record

let ingest_bundle t (bundle : Dpapi.bundle) =
  List.iter
    (fun (e : Dpapi.bundle_entry) ->
      List.iter (ingest_record t e.target.pnode) e.records)
    bundle

let ingest_frame t = function
  | Wap_log.Map { pnode; ino = _; name } -> Provdb.set_file t.db pnode ~name
  | Wap_log.Mkobj { pnode } -> Provdb.declare_virtual t.db pnode
  | Wap_log.Bundle { txn = Some id; bundle; data = _ } -> (
      (* transactional: buffer until ENDTXN *)
      let is_endtxn =
        List.exists
          (fun (e : Dpapi.bundle_entry) ->
            List.exists
              (fun (r : Record.t) -> String.equal r.attr Record.Attr.endtxn)
              e.records)
          bundle
      in
      let pending =
        match Hashtbl.find_opt t.pending_txns id with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.add t.pending_txns id l;
            Telemetry.set t.i.txns_pending
              (float_of_int (Hashtbl.length t.pending_txns));
            l
      in
      pending := bundle :: !pending;
      if is_endtxn then begin
        List.iter (ingest_bundle t) (List.rev !pending);
        Hashtbl.remove t.pending_txns id;
        Telemetry.set t.i.txns_pending
          (float_of_int (Hashtbl.length t.pending_txns));
        Telemetry.incr t.i.txns_committed;
        Pvtrace.event t.tracer ~layer:"waldo" ~op:"txn_end"
          ~outcome:"committed" ()
      end)
  | Wap_log.Bundle { txn = None; bundle; data } ->
      (* md5 first: the digest describes the write the frame records, so
         its position must not depend on how many provenance-only writes
         were coalesced into the same frame by client batching *)
      (match data with
      | Some d ->
          Provdb.add_record t.db d.d_pnode ~version:(cur_version t d.d_pnode)
            (Record.make Record.Attr.data_md5 (Pvalue.Bytes d.d_md5))
      | None -> ());
      ingest_bundle t bundle

(* Offline replay: ingest a list of already-parsed frames through the same
   production path `attach` uses.  pvcheck replays an unprocessed active
   log through this so the checker cannot diverge from the ingester. *)
let replay_frames t frames =
  Pvtrace.span t.tracer ~layer:"waldo" ~op:"replay" @@ fun () ->
  Pvtrace.set_outcome t.tracer "replayed";
  List.iter
    (fun f ->
      Telemetry.incr t.i.frames_ingested;
      ingest_frame t f)
    frames

let pending_txns t =
  List.sort Int.compare
    (Hashtbl.fold (fun id _ acc -> id :: acc) t.pending_txns [])

let ( let* ) = Result.bind

(* --- checkpointing (DESIGN §13) ------------------------------------------- *)

(* Encode the in-flight transaction buffers as WAP frames so a
   checkpoint can carry them across the truncation of the logs they
   arrived in.  Frames are emitted in sorted-id, arrival order — the
   order replay would have rebuilt the buffers in. *)
let encode_pending t =
  let ids =
    List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.pending_txns [])
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun id ->
      let bundles = List.rev !(Hashtbl.find t.pending_txns id) in
      List.iter
        (fun bundle ->
          Wap_log.encode_frame_into buf
            (Wap_log.Bundle { txn = Some id; bundle; data = None }))
        bundles)
    ids;
  (ids, Buffer.contents buf)

let remove_if_exists lower path =
  match Vfs.remove_path lower path with
  | Ok () | Error Vfs.ENOENT -> Ok ()
  | Error e -> Error e

(* Take a checkpoint: stage every payload file, then commit with the
   manifest rename, then clean up what the new manifest obsoletes.

   Write order is the crash argument.  Before the manifest rename is
   durable nothing references the staged files, so a crash leaves the
   previous checkpoint (or none) governing recovery with every WAP log
   still on disk.  After it, the new manifest names a complete,
   digest-verified set.  Cleanup — truncating covered logs, dropping the
   previous generation's image/sidecar — runs last and is idempotent;
   [recover] finishes it if a crash interrupts. *)
let checkpoint t =
  Pvtrace.span t.tracer ~layer:"waldo" ~op:"checkpoint" @@ fun () ->
  let dir = t.checkpoint_dir in
  let gen = t.gen + 1 in
  let watermark = t.next_watermark in
  (* stage compaction in memory (pure) *)
  let keep = Option.value t.compact_keep ~default:max_int in
  let hot, cold =
    if keep = max_int && not (Provdb.cold_loaded t.db) then
      (* nothing to strip: the resident db IS the hot tier *)
      (t.db, None)
    else
      let h, c = Provdb.compact t.db ~keep in
      (h, if Provdb.quad_count c > 0 then Some c else None)
  in
  (* stage payload files; none is referenced until the manifest commits *)
  let db_name = Checkpoint.image_name ~gen in
  let* db_digest =
    Checkpoint.write_atomic t.lower ~path:(dir ^ "/" ^ db_name) (Provdb.serialize hot)
  in
  let* archives =
    match cold with
    | None -> Ok t.archives
    | Some c ->
        let name = Checkpoint.archive_name ~gen in
        let* digest =
          Checkpoint.write_atomic t.lower ~path:(dir ^ "/" ^ name) (Provdb.serialize c)
        in
        Ok (t.archives @ [ (name, digest) ])
  in
  let pending_ids, pending_payload = encode_pending t in
  let* pending =
    if pending_ids = [] then Ok None
    else
      let name = Checkpoint.pending_name ~gen in
      let* digest =
        Checkpoint.write_atomic t.lower ~path:(dir ^ "/" ^ name) pending_payload
      in
      Ok (Some (name, digest))
  in
  (* COMMIT *)
  let* () =
    Checkpoint.write_manifest t.lower ~dir
      {
        Checkpoint.m_gen = gen;
        m_watermark = watermark;
        m_db_name = db_name;
        m_db_digest = db_digest;
        m_archives = archives;
        m_pending = pending;
        m_pending_txns = pending_ids;
      }
  in
  let old_gen = t.gen in
  t.db <- hot;
  t.gen <- gen;
  t.archives <- archives;
  t.frames_since_ckpt <- 0;
  Telemetry.set t.i.ckpt_staleness 0.;
  Archive.install_handler ?registry:t.registry t.lower ~dir ~segments:archives t.db;
  Telemetry.incr t.i.checkpoints;
  Pvtrace.set_outcome t.tracer "committed";
  (* cleanup: everything from here is re-done by recover after a crash *)
  let* truncated = Checkpoint.truncate_covered t.lower ~watermark in
  Telemetry.add t.i.logs_truncated truncated;
  let* () =
    if old_gen > 0 then
      let* () = remove_if_exists t.lower (dir ^ "/" ^ Checkpoint.image_name ~gen:old_gen) in
      remove_if_exists t.lower (dir ^ "/" ^ Checkpoint.pending_name ~gen:old_gen)
    else Ok ()
  in
  Ok ()

(* Process one closed log: read it and ingest every frame.  Without a
   checkpoint policy the log is removed immediately (the original
   behaviour); under [Manual] / [Every_frames] it is retained until a
   durable checkpoint covers it, and [Every_frames] triggers that
   checkpoint from here. *)
let process_log t ~dir ~name =
  let* () =
    Pvtrace.span t.tracer ~layer:"waldo" ~op:"process_log" @@ fun () ->
    let* ino = t.lower.Vfs.lookup ~dir name in
    let* st = t.lower.Vfs.getattr ino in
    let* image = t.lower.Vfs.read ino ~off:0 ~len:st.Vfs.st_size in
    let frames, _consumed = Wap_log.parse_log image in
    List.iter
      (fun f ->
        Telemetry.incr t.i.frames_ingested;
        ingest_frame t f)
      frames;
    t.frames_since_ckpt <- t.frames_since_ckpt + List.length frames;
    Telemetry.set t.i.ckpt_staleness (float_of_int t.frames_since_ckpt);
    (match Checkpoint.log_seq name with
    | Some seq when seq + 1 > t.next_watermark -> t.next_watermark <- seq + 1
    | _ -> ());
    let* () =
      match t.policy with
      | Disabled -> t.lower.Vfs.unlink ~dir name
      | Manual | Every_frames _ -> Ok ()
    in
    Telemetry.incr t.i.logs_processed;
    Ok ()
  in
  match t.policy with
  | Every_frames n when t.frames_since_ckpt >= n -> checkpoint t
  | _ -> Ok ()

(* Wire this Waldo to a Lasagna instance: every closed log is processed
   immediately (the simulated inotify). *)
let attach t lasagna =
  let dir =
    match Vfs.lookup_path t.lower "/.pass" with
    | Ok ino -> ino
    | Error e -> Vfs.fatal "waldo: no .pass dir" e
  in
  Lasagna.on_log_closed lasagna (fun name _ino ->
      match process_log t ~dir ~name with
      | Ok () -> ()
      | Error e ->
          Logs.warn (fun m -> m "waldo: failed to process %s: %s" name (Vfs.errno_to_string e)))

(* Re-seed the ingest-side version map from the stored graph: the latest
   frozen version of each object is its max attributed version.  Without
   this, records arriving after a daemon restart would be attributed to
   version 0. *)
let reseed_versions t =
  List.iter
    (fun (n : Provdb.node) ->
      if n.max_version > 0 then
        Hashtbl.replace t.ingest_version n.pnode n.max_version)
    (Provdb.all_nodes t.db)

(* Persist the database through the file system (the paper's Waldo keeps
   its databases on disk); [load] brings it back after a daemon restart.
   The image is staged and renamed into place, so a crash mid-persist
   leaves the previous image intact, and it is digest-framed so [load]
   detects a damaged one instead of ingesting garbage. *)
let persist t ~dir =
  let image = Provdb.serialize t.db in
  let* _digest = Checkpoint.write_atomic t.lower ~path:(dir ^ "/db.dat") image in
  Ok ()

let load ?registry ~lower ~dir () =
  let* image, _digest = Checkpoint.read_verified lower ~path:(dir ^ "/db.dat") in
  match Provdb.deserialize image with
  | db ->
      let t = create ?registry ~lower () in
      Provdb.merge_into ~dst:(t.db : Provdb.t) ~src:db;
      reseed_versions t;
      Ok t
  | exception Wire.Corrupt _ -> Error Vfs.EIO

(* --- bounded recovery ------------------------------------------------------ *)

type recovery_info = {
  ri_gen : int;  (* checkpoint generation recovered from, 0 = none *)
  ri_manifest : bool;  (* a durable checkpoint was found *)
  ri_watermark : int;  (* logs below this were covered by the image *)
  ri_logs_skipped : int;  (* covered logs found on disk and not replayed *)
  ri_logs_replayed : int;  (* suffix logs replayed after the image *)
  ri_frames_replayed : int;
  ri_pending_restored : int;  (* in-flight txns restored from the sidecar *)
  ri_archives : int;  (* cold-tier segments available for fault-in *)
}

let sorted_logs lower =
  match Vfs.lookup_path lower "/.pass" with
  | Error Vfs.ENOENT -> Ok []
  | Error e -> Error e
  | Ok pass_dir ->
      let* names = lower.Vfs.readdir pass_dir in
      let logs = List.filter_map (fun n -> Option.map (fun s -> (s, n)) (Checkpoint.log_seq n)) names in
      Ok (List.sort (fun (a, _) (b, _) -> Int.compare a b) logs)

let replay_log t ~seq ~name =
  let* image = Vfs.read_file t.lower ("/.pass/" ^ name) in
  let frames, _consumed = Wap_log.parse_log image in
  replay_frames t frames;
  if seq + 1 > t.next_watermark then t.next_watermark <- seq + 1;
  Ok (List.length frames)

(* Delete whatever a crashed checkpoint or interrupted cleanup left in
   the checkpoint directory: staged *.tmp files and payload files of
   generations the manifest does not reference.  The legacy stand-alone
   [persist] image (db.dat) is never touched. *)
let clean_strays lower ~dir keep =
  match Vfs.lookup_path lower dir with
  | Error Vfs.ENOENT -> Ok ()
  | Error e -> Error e
  | Ok dir_ino ->
      let* names = lower.Vfs.readdir dir_ino in
      List.fold_left
        (fun acc name ->
          let* () = acc in
          if List.mem name keep || String.equal name "db.dat" then Ok ()
          else lower.Vfs.unlink ~dir:dir_ino name)
        (Ok ()) names

(* Restart Waldo from the durable checkpoint: load the image, restore
   the in-flight transaction buffers from the sidecar, finish any
   cleanup a crash interrupted, and replay only the post-watermark log
   suffix.  Without a manifest this degrades to the full-history replay
   the system always had. *)
let recover ?registry ?tracer ?policy ?compact_keep ?(dir = "/.waldo") ~lower () =
  let t = create ?registry ?tracer ?policy ?compact_keep ~checkpoint_dir:dir ~lower () in
  let* manifest = Checkpoint.read_manifest lower ~dir in
  match manifest with
  | None ->
      (* no checkpoint ever committed: replay all history *)
      let* () = clean_strays lower ~dir [ Checkpoint.manifest_name ] in
      let* logs = sorted_logs lower in
      let* frames =
        List.fold_left
          (fun acc (seq, name) ->
            let* n = acc in
            let* k = replay_log t ~seq ~name in
            Ok (n + k))
          (Ok 0) logs
      in
      Ok
        ( t,
          {
            ri_gen = 0;
            ri_manifest = false;
            ri_watermark = 0;
            ri_logs_skipped = 0;
            ri_logs_replayed = List.length logs;
            ri_frames_replayed = frames;
            ri_pending_restored = 0;
            ri_archives = 0;
          } )
  | Some m ->
      let* image, digest =
        Checkpoint.read_verified lower ~path:(dir ^ "/" ^ m.Checkpoint.m_db_name)
      in
      let* db =
        if not (String.equal digest m.Checkpoint.m_db_digest) then Error Vfs.EIO
        else
          match Provdb.deserialize image with
          | db -> Ok db
          | exception Wire.Corrupt _ -> Error Vfs.EIO
      in
      (* the image is adopted wholesale (not merged) so node floors and
         the hot/cold tier split come back exactly as checkpointed *)
      t.db <- db;
      reseed_versions t;
      t.gen <- m.Checkpoint.m_gen;
      t.archives <- m.Checkpoint.m_archives;
      t.next_watermark <- m.Checkpoint.m_watermark;
      (* restore in-flight transaction buffers from the sidecar *)
      let* pending_restored =
        match m.Checkpoint.m_pending with
        | None -> Ok 0
        | Some (name, want) ->
            let* payload, got = Checkpoint.read_verified lower ~path:(dir ^ "/" ^ name) in
            if not (String.equal want got) then Error Vfs.EIO
            else begin
              let frames, _consumed = Wap_log.parse_log payload in
              List.iter (ingest_frame t) frames;
              Ok (Hashtbl.length t.pending_txns)
            end
      in
      (* finish interrupted cleanup, idempotently *)
      let keep =
        Checkpoint.manifest_name :: m.Checkpoint.m_db_name
        :: (match m.Checkpoint.m_pending with Some (n, _) -> [ n ] | None -> [])
        @ List.map fst m.Checkpoint.m_archives
      in
      let* () = clean_strays lower ~dir keep in
      let* logs = sorted_logs lower in
      let covered, suffix =
        List.partition (fun (seq, _) -> seq < m.Checkpoint.m_watermark) logs
      in
      let* truncated = Checkpoint.truncate_covered lower ~watermark:m.Checkpoint.m_watermark in
      Telemetry.add t.i.logs_truncated truncated;
      let* frames =
        List.fold_left
          (fun acc (seq, name) ->
            let* n = acc in
            let* k = replay_log t ~seq ~name in
            Ok (n + k))
          (Ok 0) suffix
      in
      Archive.install_handler ?registry t.lower ~dir ~segments:t.archives t.db;
      Ok
        ( t,
          {
            ri_gen = m.Checkpoint.m_gen;
            ri_manifest = true;
            ri_watermark = m.Checkpoint.m_watermark;
            ri_logs_skipped = List.length covered;
            ri_logs_replayed = List.length suffix;
            ri_frames_replayed = frames;
            ri_pending_restored = pending_restored;
            ri_archives = List.length t.archives;
          } )

let fault_in_archive t = Provdb.fault_in t.db

(* Drain everything: close the active log and (because attach processes
   synchronously) return once the database is up to date.  Orphaned
   transactions are discarded and counted. *)
let finalize t lasagna =
  Lasagna.flush_log lasagna;
  let orphans = Hashtbl.length t.pending_txns in
  Telemetry.add t.i.txns_orphaned orphans;
  List.iter
    (fun _ ->
      Pvtrace.event t.tracer ~layer:"waldo" ~op:"txn_discard"
        ~outcome:"orphaned" ())
    (pending_txns t);
  Hashtbl.reset t.pending_txns;
  Telemetry.set t.i.txns_pending 0.;
  orphans
