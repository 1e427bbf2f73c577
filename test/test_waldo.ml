(* Waldo tests: log ingestion fidelity, FREEZE-driven version attribution,
   transaction buffering/commit, orphan discarding, log-file cleanup, and
   database merging / size accounting. *)

open Pass_core

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

(* A Lasagna volume with a Waldo attached; [registry] holds Waldo's
   instruments. *)
let fresh () =
  let clock = Simdisk.Clock.create () in
  let disk = Simdisk.Disk.create ~clock () in
  let ext3 = Ext3.format disk in
  let ctx = Ctx.create ~machine:1 in
  let lasagna =
    Lasagna.create ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0"
      ~charge:(Simdisk.Clock.advance clock) ()
  in
  let registry = Telemetry.create () in
  let waldo = Waldo.create ~registry ~lower:(Ext3.ops ext3) () in
  Waldo.attach waldo lasagna;
  (registry, ext3, lasagna, waldo)

let test_ingestion_fidelity () =
  let registry, _ext3, lasagna, waldo = fresh () in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  let records =
    [ Record.typ "WIDGET"; Record.name "the-widget";
      Record.make "PARAMS" (Pvalue.Strs [ "a=1"; "b=2" ]) ]
  in
  Helpers.ok (Dpapi.disclose ep h records);
  ignore (Waldo.finalize waldo lasagna : int);
  let db = Waldo.db waldo in
  let quads = Provdb.records_all db h.Dpapi.pnode in
  check tint "all records ingested" 3 (List.length quads);
  check tbool "content preserved" true
    (List.exists (fun (q : Provdb.quad) -> q.q_value = Pvalue.Str "the-widget") quads);
  check tint "records counted" 3 (Helpers.counter registry "waldo.records_ingested")

let test_freeze_version_attribution () =
  let _registry, _ext3, lasagna, waldo = fresh () in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  Helpers.ok (Dpapi.disclose ep h [ Record.name "before" ]);
  ignore (Helpers.ok (ep.pass_freeze h) : int);
  Helpers.ok (Dpapi.disclose ep h [ Record.make "PARAMS" (Pvalue.Str "after") ]);
  ignore (Waldo.finalize waldo lasagna : int);
  let db = Waldo.db waldo in
  let v0 = Provdb.records_at db h.Dpapi.pnode ~version:0 in
  let v1 = Provdb.records_at db h.Dpapi.pnode ~version:1 in
  check tbool "pre-freeze record at v0" true
    (List.exists (fun (q : Provdb.quad) -> q.q_value = Pvalue.Str "before") v0);
  check tbool "freeze marker at v1" true
    (List.exists (fun (q : Provdb.quad) -> q.q_attr = Record.Attr.freeze) v1);
  check tbool "post-freeze record at v1" true
    (List.exists (fun (q : Provdb.quad) -> q.q_value = Pvalue.Str "after") v1)

let test_logs_removed_after_processing () =
  let registry, ext3, lasagna, waldo = fresh () in
  let ep = Lasagna.endpoint lasagna in
  for i = 0 to 30 do
    let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
    Helpers.ok (Dpapi.disclose ep h [ Record.name (Printf.sprintf "obj%d" i) ])
  done;
  ignore (Waldo.finalize waldo lasagna : int);
  (* only the freshly opened active log remains in .pass *)
  let lower = Ext3.ops ext3 in
  let pass_dir = Helpers.ok_fs (Vfs.lookup_path lower "/.pass") in
  let names = Helpers.ok_fs (lower.readdir pass_dir) in
  check tbool "processed logs were deleted" true (List.length names <= 1);
  check tbool "logs were processed" true (Helpers.counter registry "waldo.logs_processed" >= 1)

let test_txn_commit () =
  let registry, _ext3, lasagna, waldo = fresh () in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  (* write two chunks inside txn 7, then the ENDTXN *)
  let chunk recs = [ Dpapi.entry h recs ] in
  ignore
    (Helpers.ok
       (Lasagna.write_txn_bundle ~txn:7 lasagna h ~off:0 ~data:None
          (chunk [ Record.make "PARAMS" (Pvalue.Str "one") ]))
      : int);
  ignore
    (Helpers.ok
       (Lasagna.write_txn_bundle ~txn:7 lasagna h ~off:0 ~data:None
          (chunk [ Record.make "PARAMS" (Pvalue.Str "two") ]))
      : int);
  ignore
    (Helpers.ok
       (Lasagna.write_txn_bundle ~txn:7 lasagna h ~off:0 ~data:None
          (chunk [ Record.make Record.Attr.endtxn (Pvalue.Int 7) ]))
      : int);
  let orphans = Waldo.finalize waldo lasagna in
  check tint "no orphans" 0 orphans;
  check tint "txn committed" 1 (Helpers.counter registry "waldo.txns_committed");
  let quads = Provdb.records_all (Waldo.db waldo) h.Dpapi.pnode in
  check tbool "txn contents ingested" true
    (List.exists (fun (q : Provdb.quad) -> q.q_value = Pvalue.Str "one") quads
    && List.exists (fun (q : Provdb.quad) -> q.q_value = Pvalue.Str "two") quads)

let test_txn_orphan () =
  let _registry, _ext3, lasagna, waldo = fresh () in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  ignore
    (Helpers.ok
       (Lasagna.write_txn_bundle ~txn:9 lasagna h ~off:0 ~data:None
          [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str "never") ] ])
      : int);
  let orphans = Waldo.finalize waldo lasagna in
  check tint "one orphan" 1 orphans;
  let quads = Provdb.records_all (Waldo.db waldo) h.Dpapi.pnode in
  check tbool "orphan contents dropped" false
    (List.exists (fun (q : Provdb.quad) -> q.q_value = Pvalue.Str "never") quads)

let test_interleaved_txns () =
  (* two transactions interleaved in the log; one commits, one orphans *)
  let _registry, _ext3, lasagna, waldo = fresh () in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  let send txn tag =
    ignore
      (Helpers.ok
         (Lasagna.write_txn_bundle ~txn lasagna h ~off:0 ~data:None
            [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str tag) ] ])
        : int)
  in
  send 1 "a1";
  send 2 "b1";
  send 1 "a2";
  ignore
    (Helpers.ok
       (Lasagna.write_txn_bundle ~txn:1 lasagna h ~off:0 ~data:None
          [ Dpapi.entry h [ Record.make Record.Attr.endtxn (Pvalue.Int 1) ] ])
      : int);
  let orphans = Waldo.finalize waldo lasagna in
  check tint "txn 2 orphaned" 1 orphans;
  let quads = Provdb.records_all (Waldo.db waldo) h.Dpapi.pnode in
  let has tag = List.exists (fun (q : Provdb.quad) -> q.q_value = Pvalue.Str tag) quads in
  check tbool "committed chunks present" true (has "a1" && has "a2");
  check tbool "orphan chunks absent" false (has "b1")

let test_merge_into () =
  let db1 = Provdb.create () in
  let db2 = Provdb.create () in
  let alloc = Pnode.allocator ~machine:5 in
  let a = Pnode.fresh alloc and b = Pnode.fresh alloc in
  Provdb.set_file db1 a ~name:"a.txt";
  Provdb.set_file db2 b ~name:"b.txt";
  Provdb.add_record db2 b ~version:0 (Record.input_of a 0);
  let merged = Provdb.create () in
  Provdb.merge_into ~dst:merged ~src:db1;
  Provdb.merge_into ~dst:merged ~src:db2;
  check tint "both names findable" 1 (List.length (Provdb.find_by_name merged "a.txt"));
  check tbool "cross-db edge intact" true
    (List.exists (fun (_, (x : Pvalue.xref)) -> Pnode.equal x.pnode a)
       (Provdb.out_edges merged b ~version:0));
  check tbool "merged acyclic" true (Provdb.is_acyclic merged)

let test_persist_and_load () =
  let _registry, ext3, lasagna, waldo = fresh () in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  Helpers.ok
    (Dpapi.disclose ep h
       [ Record.name "persisted-obj"; Record.make "PARAMS" (Pvalue.Strs [ "x"; "y" ]) ]);
  ignore (Waldo.finalize waldo lasagna : int);
  (* daemon writes its database to disk and "restarts" *)
  Helpers.ok_fs (Waldo.persist waldo ~dir:"/waldo-db");
  let reborn = Helpers.ok_fs (Waldo.load ~lower:(Ext3.ops ext3) ~dir:"/waldo-db" ()) in
  let db = Waldo.db reborn in
  check tint "name index rebuilt" 1 (List.length (Provdb.find_by_name db "persisted-obj"));
  let quads = Provdb.records_all db h.Dpapi.pnode in
  check tint "records preserved" 2 (List.length quads);
  check tbool "values intact" true
    (List.exists (fun (q : Provdb.quad) -> q.q_value = Pvalue.Strs [ "x"; "y" ]) quads)

let test_provdb_serialize_roundtrip () =
  let db, _, _, _, out, _ = Test_pql.sample_db () in
  let image = Provdb.serialize db in
  let db2 = Provdb.deserialize image in
  check tint "node count preserved" (Provdb.node_count db) (Provdb.node_count db2);
  check tint "quad count preserved" (Provdb.quad_count db) (Provdb.quad_count db2);
  check tbool "edges preserved" true
    (Provdb.out_edges db2 out ~version:0 = Provdb.out_edges db out ~version:0);
  check tbool "acyclic preserved" true (Provdb.is_acyclic db2);
  (* corrupt images are rejected *)
  (match Provdb.deserialize "garbage-bytes" with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "corrupt image accepted")

let test_size_accounting () =
  let db = Provdb.create () in
  let alloc = Pnode.allocator ~machine:6 in
  let p = Pnode.fresh alloc in
  Provdb.set_file db p ~name:"sized.bin";
  let before_db = Provdb.db_bytes db and before_idx = Provdb.index_bytes db in
  for i = 0 to 99 do
    Provdb.add_record db p ~version:i (Record.make "PARAMS" (Pvalue.Str (string_of_int i)))
  done;
  check tbool "db bytes grow" true (Provdb.db_bytes db > before_db + 1000);
  check tbool "index bytes grow" true (Provdb.index_bytes db > before_idx + 1000);
  (* re-ingesting records at an already-indexed (pnode, version, attr)
     must not grow the attr index: postings are deduplicated at insert *)
  let idx = Provdb.index_bytes db in
  Provdb.add_record db p ~version:0 (Record.make "PARAMS" (Pvalue.Str "dup"));
  check tint "duplicate posting not re-indexed" idx (Provdb.index_bytes db);
  check tint "attr cardinality is distinct entries" 100 (Provdb.attr_cardinality db "params");
  check tint "total = db + idx" (Provdb.total_bytes db)
    (Provdb.db_bytes db + Provdb.index_bytes db)

let test_index_accessors () =
  let db, in1, _in2, proc, out, _ = Test_pql.sample_db () in
  (* the attribute index finds every (pnode, version) carrying an attr *)
  let freezes = Provdb.with_attr db Record.Attr.freeze in
  check tint "one FREEZE occurrence" 1 (List.length freezes);
  check tbool "freeze is on out v1" true (List.mem (out, 1) freezes);
  (* point lookup of an attribute value *)
  (match Provdb.attr_value db proc ~version:0 "NAME" with
  | Some (Pvalue.Str "kepler") -> ()
  | _ -> Alcotest.fail "attr_value NAME");
  check tbool "missing attr is None" true
    (Provdb.attr_value db in1 ~version:0 "ARGV" = None);
  (* reverse index includes the referenced version *)
  let refs = Provdb.in_edges db in1 in
  check tbool "in_edges carries referenced version" true
    (List.exists (fun (src, _sv, attr, dv) -> src = proc && attr = "INPUT" && dv = 0) refs)

let test_opm_export () =
  let db, in1, _in2, proc, out, _ = Test_pql.sample_db () in
  let graph = Opm.export db in
  check Alcotest.string "root element" "opmGraph" graph.Sxml.tag;
  let arts = Option.get (Sxml.first_child graph "artifacts") in
  let procs = Option.get (Sxml.first_child graph "processes") in
  let deps = Option.get (Sxml.first_child graph "dependencies") in
  (* 4 files (out has 2 versions -> 5 artifact entries) *)
  check tint "artifact count" 5 (List.length (Sxml.children_named arts "artifact"));
  check tint "process count" 1 (List.length (Sxml.children_named procs "process"));
  (* out v0 <- kepler  =>  wasGeneratedBy; kepler <- in1  =>  used *)
  check tbool "wasGeneratedBy present" true
    (Sxml.children_named deps "wasGeneratedBy" <> []);
  check tbool "used present" true (Sxml.children_named deps "used" <> []);
  check tbool "version edge is wasDerivedFrom" true
    (Sxml.children_named deps "wasDerivedFrom" <> []);
  (* the export is well-formed XML: parse it back *)
  let reparsed = Sxml.parse (Opm.to_string db) in
  check Alcotest.string "reparses" "opmGraph" reparsed.Sxml.tag;
  ignore (in1, proc, out : Pnode.t * Pnode.t * Pnode.t)

(* ------------------------------------------------------------------ *)
(* Checkpoint era: crash-safe persist, retention policies, truncation,
   and bounded recovery.  These rigs expose the disk so tests can pull
   the plug at a chosen write tick. *)

let fresh_ckpt ?policy ?compact_keep ?(log_max = 512) () =
  let clock = Simdisk.Clock.create () in
  let registry = Telemetry.create () in
  let disk = Simdisk.Disk.create ~registry ~clock () in
  let ext3 = Ext3.format disk in
  let ctx = Ctx.create ~machine:1 in
  let lasagna =
    Lasagna.create ~log_max ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0"
      ~charge:(Simdisk.Clock.advance clock) ()
  in
  let waldo = Waldo.create ?policy ?compact_keep ~lower:(Ext3.ops ext3) () in
  Waldo.attach waldo lasagna;
  ignore (ctx : Ctx.t);
  (disk, ext3, lasagna, waldo, registry)

let pass_logs lower =
  match Vfs.lookup_path lower "/.pass" with
  | Error _ -> []
  | Ok dir ->
      List.filter
        (fun n -> Checkpoint.log_seq n <> None)
        (Helpers.ok_fs (lower.Vfs.readdir dir))

(* Satellite regression: persist stages the image and renames it into
   place, so a crash at ANY write tick of a re-persist leaves a fully
   loadable image — the old one or the new one, never a torn hybrid. *)
let test_persist_atomic_under_crash () =
  let populate () =
    let disk, ext3, lasagna, waldo, registry = fresh_ckpt () in
    let ep = Lasagna.endpoint lasagna in
    let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
    Helpers.ok
      (Dpapi.disclose ep h
         [ Record.name "stable"; Record.make "PARAMS" (Pvalue.Str "v1") ]);
    ignore (Waldo.finalize waldo lasagna : int);
    Helpers.ok_fs (Waldo.persist waldo ~dir:"/waldo-db");
    (* mutate the db so the second image differs from the first *)
    Provdb.add_record (Waldo.db waldo) h.Dpapi.pnode ~version:0
      (Record.make "PARAMS" (Pvalue.Str "v2"));
    (disk, ext3, waldo, h, registry)
  in
  (* measure how many block writes a clean re-persist costs *)
  let persist_writes =
    let _disk, _ext3, waldo, _h, registry = populate () in
    let before = Helpers.counter registry "disk.writes" in
    Helpers.ok_fs (Waldo.persist waldo ~dir:"/waldo-db");
    Helpers.counter registry "disk.writes" - before
  in
  check tbool "re-persist issues writes" true (persist_writes > 0);
  for k = 1 to persist_writes do
    let disk, _ext3, waldo, h, _registry = populate () in
    Simdisk.Disk.schedule_crash disk ~after_writes:k;
    (match Waldo.persist waldo ~dir:"/waldo-db" with
    | Ok () | Error _ -> ());
    Simdisk.Disk.revive disk;
    let ext3 = Ext3.mount disk in
    let reborn = Helpers.ok_fs (Waldo.load ~lower:(Ext3.ops ext3) ~dir:"/waldo-db" ()) in
    let quads = Provdb.records_all (Waldo.db reborn) h.Dpapi.pnode in
    let n = List.length quads in
    if n <> 2 && n <> 3 then
      Alcotest.failf "crash at write %d: image has %d records (want 2 or 3)" k n
  done;
  (* a tampered image is rejected outright, never half-loaded *)
  let _disk, ext3, _waldo, _h, _registry = populate () in
  let lower = Ext3.ops ext3 in
  ignore (Helpers.ok_fs (Vfs.write_file lower "/waldo-db/db.dat" "garbage") : Vfs.ino);
  match Waldo.load ~lower ~dir:"/waldo-db" () with
  | Error Vfs.EIO -> ()
  | Ok _ -> Alcotest.fail "tampered image accepted"
  | Error e -> Alcotest.failf "unexpected errno %s" (Vfs.errno_to_string e)

let test_manual_checkpoint_truncates () =
  let _disk, ext3, lasagna, waldo, _registry =
    fresh_ckpt ~policy:Waldo.Manual ~log_max:256 ()
  in
  let ep = Lasagna.endpoint lasagna in
  for i = 0 to 30 do
    let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
    Helpers.ok (Dpapi.disclose ep h [ Record.name (Printf.sprintf "obj%d" i) ])
  done;
  ignore (Waldo.finalize waldo lasagna : int);
  let lower = Ext3.ops ext3 in
  let retained = pass_logs lower in
  check tbool "Manual policy retains processed logs" true (List.length retained > 1);
  Helpers.ok_fs (Waldo.checkpoint waldo);
  let after = pass_logs lower in
  check tbool "checkpoint truncates covered logs" true
    (List.length after < List.length retained);
  match Helpers.ok_fs (Checkpoint.read_manifest lower ~dir:"/.waldo") with
  | None -> Alcotest.fail "manifest missing after checkpoint"
  | Some m ->
      check tint "first generation" 1 m.Checkpoint.m_gen;
      check tbool "watermark advanced" true (m.Checkpoint.m_watermark >= 1);
      List.iter
        (fun n ->
          match Checkpoint.log_seq n with
          | Some s when s < m.Checkpoint.m_watermark ->
              Alcotest.failf "covered log %s survived truncation" n
          | _ -> ())
        after

let test_every_frames_auto_checkpoint () =
  let _disk, ext3, lasagna, waldo, _registry =
    fresh_ckpt ~policy:(Waldo.Every_frames 8) ~log_max:256 ()
  in
  let ep = Lasagna.endpoint lasagna in
  for i = 0 to 40 do
    let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
    Helpers.ok (Dpapi.disclose ep h [ Record.name (Printf.sprintf "auto%d" i) ])
  done;
  ignore (Waldo.finalize waldo lasagna : int);
  match Helpers.ok_fs (Checkpoint.read_manifest (Ext3.ops ext3) ~dir:"/.waldo") with
  | Some m -> check tbool "auto checkpoint committed" true (m.Checkpoint.m_gen >= 1)
  | None -> Alcotest.fail "Every_frames never checkpointed"

(* Full round trip: version history -> checkpoint (with compaction to a
   cold archive) -> suffix traffic -> crash -> recover.  The recovered
   graph, after faulting the archive back in, must serialize to exactly
   the pre-crash bytes, and the recovery report must show a bounded
   (suffix-only) replay. *)
let test_checkpoint_recover_roundtrip () =
  let disk, _ext3, lasagna, waldo, _registry =
    fresh_ckpt ~policy:Waldo.Manual ~compact_keep:1 ~log_max:256 ()
  in
  let ep = Lasagna.endpoint lasagna in
  let hs =
    Array.init 4 (fun i ->
        let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
        Helpers.ok (Dpapi.disclose ep h [ Record.name (Printf.sprintf "ck%d" i) ]);
        h)
  in
  for round = 1 to 3 do
    Array.iter
      (fun h ->
        Helpers.ok (Dpapi.disclose ep h [ Record.make "PARAMS" (Pvalue.Int round) ]);
        ignore (Helpers.ok (ep.pass_freeze h) : int))
      hs
  done;
  ignore (Waldo.finalize waldo lasagna : int);
  Helpers.ok_fs (Waldo.checkpoint waldo);
  (* post-checkpoint suffix traffic, committed to its own log *)
  Helpers.ok (Dpapi.disclose ep hs.(0) [ Record.make "PARAMS" (Pvalue.Str "suffix") ]);
  Lasagna.flush_log lasagna;
  Waldo.fault_in_archive waldo;
  let reference = Provdb.serialize (Waldo.db waldo) in
  Simdisk.Disk.crash disk;
  Simdisk.Disk.revive disk;
  let ext3 = Ext3.mount disk in
  let w2, info = Helpers.ok_fs (Waldo.recover ~lower:(Ext3.ops ext3) ()) in
  check tbool "manifest found" true info.Waldo.ri_manifest;
  check tint "recovered generation" 1 info.Waldo.ri_gen;
  check tint "covered logs already truncated" 0 info.Waldo.ri_logs_skipped;
  check tbool "suffix logs replayed" true (info.Waldo.ri_logs_replayed >= 1);
  check tbool "replay is bounded to the suffix" true (info.Waldo.ri_frames_replayed <= 4);
  check tbool "archive segment registered" true (info.Waldo.ri_archives >= 1);
  check tbool "cold tier not loaded eagerly" false (Provdb.cold_loaded (Waldo.db w2));
  Waldo.fault_in_archive w2;
  check tbool "recovered graph equals pre-crash graph" true
    (String.equal reference (Provdb.serialize (Waldo.db w2)))

let suite =
  [
    Alcotest.test_case "ingestion fidelity" `Quick test_ingestion_fidelity;
    Alcotest.test_case "FREEZE drives version attribution" `Quick
      test_freeze_version_attribution;
    Alcotest.test_case "processed logs are removed" `Quick test_logs_removed_after_processing;
    Alcotest.test_case "transaction commit" `Quick test_txn_commit;
    Alcotest.test_case "transaction orphan discarded" `Quick test_txn_orphan;
    Alcotest.test_case "interleaved transactions" `Quick test_interleaved_txns;
    Alcotest.test_case "database merge" `Quick test_merge_into;
    Alcotest.test_case "persist/load across daemon restart" `Quick test_persist_and_load;
    Alcotest.test_case "provdb serialize roundtrip" `Quick test_provdb_serialize_roundtrip;
    Alcotest.test_case "size accounting" `Quick test_size_accounting;
    Alcotest.test_case "index accessors" `Quick test_index_accessors;
    Alcotest.test_case "OPM export" `Quick test_opm_export;
    Alcotest.test_case "persist is crash-atomic" `Quick test_persist_atomic_under_crash;
    Alcotest.test_case "Manual checkpoint truncates covered logs" `Quick
      test_manual_checkpoint_truncates;
    Alcotest.test_case "Every_frames auto-checkpoints" `Quick
      test_every_frames_auto_checkpoint;
    Alcotest.test_case "checkpoint/recover round trip" `Quick
      test_checkpoint_recover_roundtrip;
  ]
