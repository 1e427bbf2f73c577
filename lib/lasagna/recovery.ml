(* Lasagna crash recovery (paper §5.6).

   WAP guarantees that no data reaches the disk before its provenance, so
   after a crash there are only two anomalies to look for:

   - a torn frame at the tail of a log (the crash hit mid-log-append);
     Wap_log.fold already stops there, and everything before it is intact;
   - a data-carrying frame whose data never (fully) made it to the file:
     the frame's MD5 disagrees with the bytes now in the file.  That is
     precisely the data that was being written at the time of the crash,
     and recovery reports it as inconsistent.

   Only the *last* data frame for each object is verifiable: earlier
   frames' byte ranges may since have been overwritten legitimately, and
   a crash can only leave the final in-flight write incomplete.

   The Map frames give the pnode -> inode map that locates each object's
   file for that check.  Recovery only counts the Map and Mkobj frames
   it scans: it restores no identity state, and a remounted Lasagna
   starts with empty pnode<->inode maps. *)

module Pnode = Pass_core.Pnode

type inconsistency = {
  i_pnode : Pnode.t;
  i_ino : Vfs.ino option;
  i_off : int;
  i_len : int;
  reason : string;
}

type log_detail = {
  l_name : string;
  l_skipped : bool; (* covered by the checkpoint watermark, not read *)
  l_frames : int; (* well-formed frames scanned (0 when skipped) *)
}

type report = {
  logs_scanned : int;
  logs_skipped : int; (* logs below the checkpoint watermark, not read *)
  watermark : int option; (* from the checkpoint MANIFEST, when one exists *)
  frames_ok : int;
  torn_bytes : int; (* bytes of torn log tail discarded across logs *)
  data_checked : int;
  inconsistent : inconsistency list;
  files : int; (* Map frames scanned *)
  virtuals : int; (* Mkobj frames scanned *)
  open_txns : int list; (* PA-NFS transactions begun but never ended:
                           orphans Waldo will discard *)
  log_details : log_detail list; (* per log, in sequence order *)
}

let ( let* ) = Result.bind

(* Transient read errors (fault-plan EIO) must not abort a recovery
   scan: they are retried under Lasagna's budget. *)
let read_whole retried lower ino =
  let* st = Lasagna.with_io_retry retried (fun () -> lower.Vfs.getattr ino) in
  Lasagna.with_io_retry retried (fun () -> lower.Vfs.read ino ~off:0 ~len:st.Vfs.st_size)

(* Recovery publishes its outcome as [wap.recovery.*] counters so a
   post-crash scan shows up in the same snapshot as the run it repairs. *)
let record_outcome registry ~io_retries report =
  let c name v =
    Telemetry.add (Telemetry.counter ?registry ("wap.recovery." ^ name)) v
  in
  c "logs_scanned" report.logs_scanned;
  c "logs_skipped" report.logs_skipped;
  c "frames_ok" report.frames_ok;
  c "torn_bytes" report.torn_bytes;
  c "data_checked" report.data_checked;
  c "inconsistent" (List.length report.inconsistent);
  c "open_txns" (List.length report.open_txns);
  c "io_retries" io_retries

let scan ?registry lower =
  (* counts retries only; published by [record_outcome] on success *)
  let retried = Telemetry.counter "wap.recovery.io_retries" in
  let* pass_dir, logs = Checkpoint.logs lower in
  (* A durable checkpoint bounds the scan: logs below its watermark are
     already reflected in the image, so they are skipped without being
     read.  A missing or unreadable manifest just means a full scan. *)
  let manifest =
    match Checkpoint.read_manifest lower with
    | Ok m -> m
    | Error _ -> None
  in
  let watermark = Option.map (fun m -> m.Checkpoint.m_watermark) manifest in
  let frames_ok = ref 0 and torn = ref 0 in
  let files = ref 0 and virtuals = ref 0 in
  let by_pnode = Hashtbl.create 64 in
  let last_data : (Pnode.t, Wap_log.data_id) Hashtbl.t = Hashtbl.create 64 in
  (* PA-NFS transactions: [seen] minus [ended] are the orphans a client
     crash (or an abandoned retransmission) left behind.  Transactions
     the checkpoint carried as in-flight began below the watermark, so
     their BEGINTXN is in a skipped log: seed [seen] from the manifest
     so an ENDTXN in the suffix still closes them. *)
  let txns_seen = ref [] and txns_ended = ref [] in
  (match manifest with
  | Some m -> txns_seen := List.rev m.Checkpoint.m_pending_txns
  | None -> ());
  let details = ref [] in
  let* () =
    List.fold_left
      (fun acc (seq, name) ->
        let* () = acc in
        match watermark with
        | Some w when seq < w ->
            details := { l_name = name; l_skipped = true; l_frames = 0 } :: !details;
            Ok ()
        | _ ->
            let* ino =
              Lasagna.with_io_retry retried (fun () -> lower.Vfs.lookup ~dir:pass_dir name)
            in
            let* image = read_whole retried lower ino in
            let frames, consumed =
              Wap_log.fold image ~init:0 (fun n frame ->
                  (match frame with
                  | Wap_log.Map { pnode; ino; _ } ->
                      Hashtbl.replace by_pnode pnode ino;
                      incr files
                  | Wap_log.Mkobj _ -> incr virtuals
                  | Wap_log.Bundle { txn; bundle; data } -> (
                      (match txn with
                      | Some id ->
                          if not (List.mem id !txns_seen) then txns_seen := id :: !txns_seen;
                          if Wap_log.ends_txn bundle && not (List.mem id !txns_ended) then
                            txns_ended := id :: !txns_ended
                      | None -> ());
                      match data with
                      | None -> ()
                      | Some d -> Hashtbl.replace last_data d.d_pnode d));
                  n + 1)
            in
            frames_ok := !frames_ok + frames;
            torn := !torn + (String.length image - consumed);
            details := { l_name = name; l_skipped = false; l_frames = frames } :: !details;
            Ok ())
      (Ok ()) logs
  in
  let bad = ref [] and checked = ref 0 in
  Hashtbl.iter
    (fun pnode (d : Wap_log.data_id) ->
      incr checked;
      match Hashtbl.find_opt by_pnode pnode with
      | None ->
          bad :=
            { i_pnode = pnode; i_ino = None; i_off = d.d_off; i_len = d.d_len;
              reason = "no inode mapping for data frame" }
            :: !bad
      | Some file_ino -> (
          match
            Lasagna.with_io_retry retried (fun () ->
                lower.Vfs.read file_ino ~off:d.d_off ~len:d.d_len)
          with
          | Error e ->
              bad :=
                { i_pnode = pnode; i_ino = Some file_ino; i_off = d.d_off; i_len = d.d_len;
                  reason = "read failed: " ^ Vfs.errno_to_string e }
                :: !bad
          | Ok bytes ->
              if String.length bytes <> d.d_len
                 || not (String.equal (Wap_log.md5 bytes) d.d_md5)
              then
                bad :=
                  { i_pnode = pnode; i_ino = Some file_ino; i_off = d.d_off; i_len = d.d_len;
                    reason = "data digest mismatch" }
                  :: !bad))
    last_data;
  let log_details = List.rev !details in
  let skipped = List.length (List.filter (fun d -> d.l_skipped) log_details) in
  let report =
    {
      logs_scanned = List.length logs - skipped;
      logs_skipped = skipped;
      watermark;
      frames_ok = !frames_ok;
      torn_bytes = !torn;
      data_checked = !checked;
      inconsistent = !bad;
      files = !files;
      virtuals = !virtuals;
      open_txns =
        List.sort Int.compare
          (List.filter (fun id -> not (List.mem id !txns_ended)) !txns_seen);
      log_details;
    }
  in
  record_outcome registry ~io_retries:(Telemetry.value retried) report;
  Ok report

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>logs=%d skipped=%d%s frames=%d torn_bytes=%d data_checked=%d inconsistent=%d open_txns=%d@]"
    r.logs_scanned r.logs_skipped
    (match r.watermark with
    | Some w -> Printf.sprintf " watermark=%d" w
    | None -> "")
    r.frames_ok r.torn_bytes r.data_checked (List.length r.inconsistent)
    (List.length r.open_txns)

(* JSON form of the report, for [passctl recover --json] and the chaos
   telemetry artifacts; uses the telemetry JSON tree so the encoding is
   shared with registry snapshots. *)
let report_to_json r : Telemetry.Json.t =
  let open Telemetry.Json in
  let inconsistency (i : inconsistency) =
    Obj
      [
        ("pnode", Int (Pnode.to_int i.i_pnode));
        ("ino", match i.i_ino with None -> Null | Some ino -> Int ino);
        ("off", Int i.i_off);
        ("len", Int i.i_len);
        ("reason", Str i.reason);
      ]
  in
  let log_detail d =
    Obj
      [
        ("name", Str d.l_name);
        ("skipped", Bool d.l_skipped);
        ("frames", Int d.l_frames);
      ]
  in
  Obj
    [
      ("logs_scanned", Int r.logs_scanned);
      ("logs_skipped", Int r.logs_skipped);
      ("watermark", (match r.watermark with None -> Null | Some w -> Int w));
      ("frames_ok", Int r.frames_ok);
      ("torn_bytes", Int r.torn_bytes);
      ("data_checked", Int r.data_checked);
      ("inconsistent", List (List.map inconsistency r.inconsistent));
      ("files", Int r.files);
      ("virtuals", Int r.virtuals);
      ("open_txns", List (List.map (fun id -> Int id) r.open_txns));
      ("logs", List (List.map log_detail r.log_details));
    ]
