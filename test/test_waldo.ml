(* Waldo tests: log ingestion fidelity, FREEZE-driven version attribution,
   transaction buffering/commit, orphan discarding, log-file retention,
   database merging / size accounting, acyclicity across the archive,
   entry ingest against the per-record rule it replaced, checkpointing,
   and a restart golden. *)

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
    (List.exists (fun (q : Record.t) -> q.value = Pvalue.Str "the-widget") quads);
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
    (List.exists (fun (q : Record.t) -> q.value = Pvalue.Str "before") v0);
  check tbool "freeze marker at v1" true
    (List.exists (fun (q : Record.t) -> q.attr = Record.Attr.freeze) v1);
  check tbool "post-freeze record at v1" true
    (List.exists (fun (q : Record.t) -> q.value = Pvalue.Str "after") v1)

(* A default-built Waldo keeps every processed log until a checkpoint
   covers it: until then the logs are the only durable copy of the
   graph. *)
let test_logs_kept_until_checkpoint () =
  let registry, ext3, lasagna, waldo = fresh () in
  let ep = Lasagna.endpoint lasagna in
  for i = 0 to 30 do
    let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
    Helpers.ok (Dpapi.disclose ep h [ Record.name (Printf.sprintf "obj%d" i) ])
  done;
  ignore (Waldo.finalize waldo lasagna : int);
  let lower = Ext3.ops ext3 in
  let logs_on_disk () = List.length (snd (Helpers.ok_fs (Checkpoint.logs lower))) in
  let processed = Helpers.counter registry "waldo.logs_processed" in
  check tbool "logs were processed" true (processed >= 1);
  check tint "every processed log kept, plus the active log" (processed + 1) (logs_on_disk ());
  Helpers.ok_fs (Waldo.checkpoint waldo);
  check tint "the checkpoint deleted the covered logs" 1 (logs_on_disk ())

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
    (List.exists (fun (q : Record.t) -> q.value = Pvalue.Str "one") quads
    && List.exists (fun (q : Record.t) -> q.value = Pvalue.Str "two") quads)

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
    (List.exists (fun (q : Record.t) -> q.value = Pvalue.Str "never") quads)

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
  let has tag = List.exists (fun (q : Record.t) -> q.value = Pvalue.Str tag) quads in
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
  check tbool "merged acyclic" true (Helpers.acyclic merged)

(* A cycle that lives wholly below the floor: the hot tier has no edges
   at all, so only a check that faults the archive in can see it. *)
let test_acyclic_checks_archive () =
  let db = Provdb.create () in
  let alloc = Pnode.allocator ~machine:8 in
  let r = Pnode.fresh alloc and s = Pnode.fresh alloc in
  Provdb.add_record db r ~version:0 (Record.input_of s 0);
  Provdb.add_record db s ~version:0 (Record.input_of r 0);
  Provdb.add_record db r ~version:1 (Record.make "PARAMS" (Pvalue.Int 1));
  Provdb.add_record db s ~version:1 (Record.make "PARAMS" (Pvalue.Int 1));
  check tbool "cycle found in one tier" false (Helpers.acyclic db);
  let hot, cold = Provdb.compact db ~keep:1 in
  check tint "hot tier holds no edge" 0 (Provdb.edge_count hot);
  let image = Provdb.serialize cold in
  Provdb.set_fault_handler hot (fun db -> Provdb.load db image; true);
  check tbool "cycle below the floor found" false (Helpers.acyclic hot)

(* --- entry ingest against the per-record rule it replaced ----------------- *)

(* The rule Waldo applied before Provdb owned the ingest-side version: a
   per-pnode version map, advanced by FREEZE records and reseeded from
   [max_version] after an image load, with every record inserted
   through [add_record] at the mapped version. *)
type reference = { mutable rdb : Provdb.t; versions : (Pnode.t, int) Hashtbl.t }

let cur_version r p = Option.value (Hashtbl.find_opt r.versions p) ~default:0

let reference_record r p (record : Record.t) =
  (match record.value with
  | Pvalue.Int v when String.equal record.attr Record.Attr.freeze -> Hashtbl.replace r.versions p v
  | _ -> ());
  Provdb.add_record r.rdb p ~version:(cur_version r p) record

let reseed_versions r =
  Hashtbl.reset r.versions;
  List.iter
    (fun (n : Provdb.node) ->
      if n.max_version > 0 then Hashtbl.replace r.versions n.pnode n.max_version)
    (Provdb.all_nodes r.rdb)

(* Records are drawn as specs and resolved against the reference's
   current version when ingested: a FREEZE steps the version up (with its
   version edge) or repeats it. *)
type spec = Name of int | Input of int * int | Freeze_up | Freeze_same | Md5 | Params of int
type ingest_op = Entry of int * spec list | Data_digest of int | Compact of int | Reload

let gen_ingest_ops =
  let open QCheck2.Gen in
  let target = int_bound 3 in
  let spec =
    frequency
      [ (2, map (fun k -> Name k) (int_bound 3));
        (3, map2 (fun j v -> Input (j, v)) target (int_bound 3));
        (2, return Freeze_up); (1, return Freeze_same); (1, return Md5);
        (2, map (fun k -> Params k) (int_bound 9)) ]
  in
  list_size (int_range 1 25)
    (frequency
       [ (8, map2 (fun p l -> Entry (p, l)) target (list_size (int_bound 5) spec));
         (2, map (fun p -> Data_digest p) target);
         (1, map (fun keep -> Compact keep) (int_range 1 2));
         (1, return Reload) ])

(* Run [ops] through [Provdb.ingest_entry] and through the reference,
   step by step, and require the same db after every step. *)
let entry_ingest_matches_reference ops =
  let alloc = Pnode.allocator ~machine:9 in
  let pnodes = Array.init 4 (fun _ -> Pnode.fresh alloc) in
  let db = ref (Provdb.create ()) in
  let r = { rdb = Provdb.create (); versions = Hashtbl.create 8 } in
  Array.iteri
    (fun i p ->
      if i < 2 then begin
        Provdb.set_file !db p ~name:(Printf.sprintf "f%d" i);
        Provdb.set_file r.rdb p ~name:(Printf.sprintf "f%d" i)
      end)
    pnodes;
  let md5 = Record.make Record.Attr.data_md5 (Pvalue.Bytes (Digest.string "data")) in
  let resolve p = function
    | Name k -> [ Record.name (Printf.sprintf "n%d" k) ]
    | Input (j, v) -> [ Record.input_of pnodes.(j) v ]
    | Freeze_up ->
        let v = cur_version r p in
        [ Record.make Record.Attr.freeze (Pvalue.Int (v + 1)); Record.input_of p v ]
    | Freeze_same -> [ Record.make Record.Attr.freeze (Pvalue.Int (cur_version r p)) ]
    | Md5 -> [ md5 ]
    | Params k -> [ Record.make "PARAMS" (Pvalue.Int k) ]
  in
  let same () =
    let a = !db and b = r.rdb in
    String.equal (Provdb.serialize a) (Provdb.serialize b)
    && Provdb.db_bytes a = Provdb.db_bytes b
    && Provdb.index_bytes a = Provdb.index_bytes b
    && Provdb.quad_count a = Provdb.quad_count b
    && Provdb.edge_count a = Provdb.edge_count b
    && Result.is_ok (Provdb.verify_indexes a)
  in
  List.for_all
    (fun op ->
      (match op with
      | Entry (i, specs) ->
          let p = pnodes.(i) in
          (* resolve each spec after the records before it, so a second
             FREEZE in one entry steps from the first *)
          let records =
            List.concat_map
              (fun spec ->
                let records = resolve p spec in
                List.iter (reference_record r p) records;
                records)
              specs
          in
          Provdb.ingest_entry !db p records
      | Data_digest i ->
          reference_record r pnodes.(i) md5;
          Provdb.ingest_entry !db pnodes.(i) [ md5 ]
      | Compact keep ->
          db := fst (Provdb.compact !db ~keep);
          r.rdb <- fst (Provdb.compact r.rdb ~keep)
      | Reload ->
          db := Provdb.deserialize (Provdb.serialize !db);
          r.rdb <- Provdb.deserialize (Provdb.serialize r.rdb);
          reseed_versions r);
      same ())
    ops

let prop_entry_ingest =
  QCheck2.Test.make ~name:"Provdb entry ingest = per-record reference" ~count:300
    gen_ingest_ops entry_ingest_matches_reference

let test_provdb_serialize_roundtrip () =
  let db, _, _, _, out, _ = Test_pql.sample_db () in
  let image = Provdb.serialize db in
  let db2 = Provdb.deserialize image in
  check tint "node count preserved" (Provdb.node_count db) (Provdb.node_count db2);
  check tint "quad count preserved" (Provdb.quad_count db) (Provdb.quad_count db2);
  check tbool "edges preserved" true
    (Provdb.out_edges db2 out ~version:0 = Provdb.out_edges db out ~version:0);
  check tbool "acyclic preserved" true (Helpers.acyclic db2);
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
  let attr p a =
    List.find_map
      (fun (r : Record.t) -> if String.equal r.attr a then Some r.value else None)
      (Provdb.records_at db p ~version:0)
  in
  (match attr proc "NAME" with
  | Some (Pvalue.Str "kepler") -> ()
  | _ -> Alcotest.fail "NAME record");
  check tbool "missing attr is None" true (attr in1 "ARGV" = None);
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
(* Checkpoint era: retention policies, truncation, crash-safe checkpoints
   and bounded recovery.  These rigs expose the disk so tests can pull
   the plug at a chosen write tick. *)

(* [after_log] runs after Waldo has processed each closed log. *)
let fresh_ckpt ?policy ?compact_keep ?(log_max = 512) ?after_log () =
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
  (* listeners run newest first: registered before Waldo, this one runs after it *)
  Option.iter (fun f -> Lasagna.on_log_closed lasagna (fun name _ -> f waldo name)) after_log;
  Waldo.attach waldo lasagna;
  ignore (ctx : Ctx.t);
  (disk, ext3, lasagna, waldo, registry)

let pass_logs lower =
  match Checkpoint.logs lower with Ok (_, logs) -> List.map snd logs | Error _ -> []

let test_manual_checkpoint_truncates () =
  let _disk, ext3, lasagna, waldo, _registry =
    fresh_ckpt ~log_max:256 ()
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
  match Helpers.ok_fs (Checkpoint.read_manifest lower) with
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
  match Helpers.ok_fs (Checkpoint.read_manifest (Ext3.ops ext3)) with
  | Some m -> check tbool "auto checkpoint committed" true (m.Checkpoint.m_gen >= 1)
  | None -> Alcotest.fail "Every_frames never checkpointed"

(* Full round trip: version history -> checkpoint (with compaction to a
   cold archive) -> suffix traffic -> crash -> recover.  The recovered
   graph, after faulting the archive back in, must serialize to exactly
   the pre-crash bytes, and the recovery report must show a bounded
   (suffix-only) replay. *)
let test_checkpoint_recover_roundtrip () =
  let disk, _ext3, lasagna, waldo, _registry =
    fresh_ckpt ~compact_keep:1 ~log_max:256 ()
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
  Helpers.ok_fs (Waldo.fault_in_archive waldo);
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
  Helpers.ok_fs (Waldo.fault_in_archive w2);
  check tbool "recovered graph equals pre-crash graph" true
    (String.equal reference (Provdb.serialize (Waldo.db w2)))

(* Ingest after a bulk load: the recovered db is built by the image
   loader, then the log suffix lands on it record by record — repeated
   attributes in loaded cells, edges to parents the image already links,
   and new ones.  Its indexes must verify, and it must serialize like
   the db that never crashed. *)
let test_ingest_after_bulk_load () =
  let disk, _ext3, lasagna, waldo, _registry =
    fresh_ckpt ~log_max:256 ()
  in
  let ep = Lasagna.endpoint lasagna in
  let mk name =
    let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
    Helpers.ok (Dpapi.disclose ep h [ Record.name name ]);
    h
  in
  let src = mk "src" and lib = mk "lib" and out = mk "out" in
  let input (h : Dpapi.handle) = Record.input_of h.Dpapi.pnode 0 in
  Helpers.ok (Dpapi.disclose ep out [ input src; Record.make "PARAMS" (Pvalue.Int 1) ]);
  ignore (Waldo.finalize waldo lasagna : int);
  Helpers.ok_fs (Waldo.checkpoint waldo);
  (* suffix: a repeated attribute and a known edge in a loaded cell, a
     new edge, and a new object *)
  let late = mk "late" in
  Helpers.ok
    (Dpapi.disclose ep out [ Record.make "PARAMS" (Pvalue.Int 2); input src; input lib; input late ]);
  Lasagna.flush_log lasagna;
  let live = Waldo.db waldo in
  let reference = Provdb.serialize live in
  Simdisk.Disk.crash disk;
  Simdisk.Disk.revive disk;
  let ext3 = Ext3.mount disk in
  let w2, info = Helpers.ok_fs (Waldo.recover ~lower:(Ext3.ops ext3) ()) in
  check tbool "recovered from the checkpoint" true info.Waldo.ri_manifest;
  check tbool "suffix replayed onto the loaded db" true (info.Waldo.ri_frames_replayed >= 1);
  let db = Waldo.db w2 in
  (match Provdb.verify_indexes db with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "indexes after suffix ingest: %s" msg);
  check tbool "serializes like the never-crashed db" true
    (String.equal reference (Provdb.serialize db));
  check tint "db bytes" (Provdb.db_bytes live) (Provdb.db_bytes db);
  check tint "index bytes" (Provdb.index_bytes live) (Provdb.index_bytes db);
  check tint "PARAMS postings" (Provdb.attr_cardinality live "PARAMS")
    (Provdb.attr_cardinality db "PARAMS");
  let out = out.Dpapi.pnode in
  let top = (Option.get (Provdb.find_node db out)).Provdb.max_version in
  let parents =
    List.sort_uniq Pnode.compare
      (List.filter_map
         (fun (p, _) -> if Pnode.equal p out then None else Some p)
         (Provdb.ancestors db out ~version:top))
  in
  check tint "out's parents" 3 (List.length parents)

(* --- recovery golden ------------------------------------------------------- *)

(* One run that writes every frame kind: files with data (Map and
   data-identity frames), virtual objects (Mkobj), freezes, a
   transaction that commits, one open across [mid] (so a checkpoint
   there carries a sidecar) and one that never ends.  The tail is
   committed but never rotated, so only a restart ingests it. *)
let golden_workload lasagna ~mid =
  let ep = Lasagna.endpoint lasagna in
  let ops = Lasagna.ops lasagna in
  let objs =
    Array.init 5 (fun i ->
        let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
        Helpers.ok (Dpapi.disclose ep h [ Record.name (Printf.sprintf "g%d" i) ]);
        h)
  in
  let file i =
    let ino = Helpers.ok_fs (Vfs.create_path ops (Printf.sprintf "/f%d" i) Vfs.Regular) in
    Helpers.ok_fs (Lasagna.file_handle lasagna ino)
  in
  let files = Array.init 3 file in
  let send txn (h : Dpapi.handle) records =
    ignore
      (Helpers.ok
         (Lasagna.write_txn_bundle ~txn lasagna h ~off:0 ~data:None [ Dpapi.entry h records ])
        : int)
  in
  for round = 1 to 4 do
    Array.iteri
      (fun i h ->
        Helpers.ok (Dpapi.disclose ep h [ Record.make "PARAMS" (Pvalue.Int round) ]);
        if (i + round) mod 2 = 0 then ignore (Helpers.ok (ep.pass_freeze h) : int))
      objs;
    Array.iteri
      (fun i (f : Dpapi.handle) ->
        let src = objs.(i) in
        let data = String.make 64 (Char.chr (65 + i)) in
        ignore
          (Helpers.ok
             (ep.pass_write f ~off:(64 * round) ~data:(Some data)
                [ Dpapi.entry f [ Record.input_of src.Dpapi.pnode 0 ] ])
            : int))
      files;
    if round = 2 then begin
      send 5 objs.(0) [ Record.make "PARAMS" (Pvalue.Str "t5a") ];
      send 6 objs.(1) [ Record.make "PARAMS" (Pvalue.Str "t6") ];
      send 7 objs.(2) [ Record.make "PARAMS" (Pvalue.Str "t7") ];
      send 7 objs.(2) [ Record.make Record.Attr.endtxn (Pvalue.Int 7) ];
      mid ()
    end;
    if round = 3 then begin
      send 5 objs.(0) [ Record.make "PARAMS" (Pvalue.Str "t5b") ];
      send 5 objs.(0) [ Record.make Record.Attr.endtxn (Pvalue.Int 5) ]
    end
  done;
  Helpers.ok_fs (Lasagna.commit_log lasagna)

(* The index gate for checkpointing ingest: under [Every_frames] with
   compaction, the live db's indexes verify after every processed log —
   across automatic checkpoints that swap in the compacted hot tier. *)
let test_every_frames_indexes_verify () =
  let logs = ref 0 in
  let verify waldo name =
    incr logs;
    match Provdb.verify_indexes (Waldo.db waldo) with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "after %s: %s" name msg
  in
  let _disk, ext3, lasagna, waldo, _registry =
    fresh_ckpt ~policy:(Waldo.Every_frames 8) ~compact_keep:1 ~log_max:256 ~after_log:verify ()
  in
  golden_workload lasagna ~mid:ignore;
  ignore (Waldo.finalize waldo lasagna : int);
  check tbool "several logs verified" true (!logs >= 4);
  match Helpers.ok_fs (Checkpoint.read_manifest (Ext3.ops ext3)) with
  | Some m -> check tbool "checkpoints committed" true (m.Checkpoint.m_gen >= 2)
  | None -> Alcotest.fail "Every_frames never checkpointed"

(* Crash [disk], restart a Waldo over it, and return every
   [recovery_info] field plus the MD5 of the recovered db. *)
let crash_and_recover ?policy ?compact_keep disk =
  Simdisk.Disk.crash disk;
  Simdisk.Disk.revive disk;
  let ext3 = Ext3.mount disk in
  let w2, i = Helpers.ok_fs (Waldo.recover ?policy ?compact_keep ~lower:(Ext3.ops ext3) ()) in
  ( [ i.Waldo.ri_gen; Bool.to_int i.ri_manifest; i.ri_watermark; i.ri_logs_skipped;
      i.ri_logs_replayed; i.ri_frames_replayed; i.ri_pending_restored; i.ri_archives ],
    Digest.to_hex (Digest.string (Provdb.serialize (Waldo.db w2))) )

let recovery_golden ?policy ?compact_keep ~checkpoint_mid () =
  let disk, _ext3, lasagna, waldo, _registry =
    fresh_ckpt ?policy ?compact_keep ~log_max:512 ()
  in
  let mid () = if checkpoint_mid then Helpers.ok_fs (Waldo.checkpoint waldo) in
  golden_workload lasagna ~mid;
  crash_and_recover ?policy ?compact_keep disk

(* The PA-NFS server side: a client transaction whose buffered chunks
   carry FREEZE records (a client-local freeze travels as a record,
   §6.1.2) commits at ENDTXN, then the server's disk crashes. *)
let nfs_recovery_golden () =
  let clock = Simdisk.Clock.create () in
  let server = Server.create ~mode:Server.Pass_enabled ~clock ~machine:2 ~volume:"nfs0" () in
  let client =
    Client.create ~net:(Proto.net clock) ~handler:(Server.handle server)
      ~ctx:(Ctx.create ~machine:1) ~mount_name:"nfs0" ()
  in
  let file path =
    let ino = Helpers.ok_fs (Vfs.write_file (Client.ops client) path "seed") in
    Helpers.ok_fs (Client.file_handle client ino)
  in
  let src = file "/src" and out = file "/out" in
  let freeze (h : Dpapi.handle) v =
    [ Record.make Record.Attr.freeze (Pvalue.Int v); Record.input_of h.Dpapi.pnode (v - 1) ]
  in
  let txn = Helpers.ok (Client.begin_txn client) in
  Helpers.ok
    (Client.send_prov_chunk client ~txn
       [ Dpapi.entry src (freeze src 1 @ [ Record.make "PARAMS" (Pvalue.Str "src1") ]) ]);
  Helpers.ok
    (Client.send_prov_chunk client ~txn
       [ Dpapi.entry out (freeze out 1 @ [ Record.input_of src.Dpapi.pnode 1 ]);
         Dpapi.entry src (freeze src 2) ]);
  ignore (Helpers.ok (Client.end_txn_write client ~txn out ~off:0 ~data:(Some "built")) : int);
  crash_and_recover (Server.disk server)

(* Every [recovery_info] field and the recovered db's MD5, pinned for
   a restart without a checkpoint and under both checkpoint policies.
   Field order: gen, manifest, watermark, logs skipped, logs replayed,
   frames replayed, pending restored, archives. *)
let test_recovery_golden () =
  let case name expect_info expect_md5 (info, md5) =
    check Alcotest.(list int) (name ^ ": recovery_info") expect_info info;
    check Alcotest.string (name ^ ": provdb MD5") expect_md5 md5
  in
  case "no checkpoint" [ 0; 0; 0; 0; 8; 61; 0; 0 ] "d2a8e33fb88e88fe3587d07bf559fb6d"
    (recovery_golden ~checkpoint_mid:false ());
  case "Manual, one checkpoint mid-run" [ 1; 1; 4; 0; 4; 25; 2; 1 ]
    "11760a70bd65118b3536c2c5e059a57c"
    (recovery_golden ~compact_keep:1 ~checkpoint_mid:true ());
  case "Every_frames 8" [ 5; 1; 7; 0; 1; 3; 1; 0 ] "d2a8e33fb88e88fe3587d07bf559fb6d"
    (recovery_golden ~policy:(Waldo.Every_frames 8) ~checkpoint_mid:false ());
  case "PA-NFS server, FREEZE records in a committed transaction" [ 0; 0; 0; 0; 1; 7; 0; 0 ]
    "b83b5338a86632aba1c3fe46c1f80ace"
    (nfs_recovery_golden ())

let suite =
  [
    Alcotest.test_case "ingestion fidelity" `Quick test_ingestion_fidelity;
    Alcotest.test_case "FREEZE drives version attribution" `Quick
      test_freeze_version_attribution;
    Alcotest.test_case "processed logs kept until checkpoint" `Quick
      test_logs_kept_until_checkpoint;
    Alcotest.test_case "transaction commit" `Quick test_txn_commit;
    Alcotest.test_case "transaction orphan discarded" `Quick test_txn_orphan;
    Alcotest.test_case "interleaved transactions" `Quick test_interleaved_txns;
    Alcotest.test_case "database merge" `Quick test_merge_into;
    Alcotest.test_case "acyclicity checks the archive" `Quick test_acyclic_checks_archive;
    Alcotest.test_case "provdb serialize roundtrip" `Quick test_provdb_serialize_roundtrip;
    Alcotest.test_case "size accounting" `Quick test_size_accounting;
    Alcotest.test_case "index accessors" `Quick test_index_accessors;
    Alcotest.test_case "OPM export" `Quick test_opm_export;
    Alcotest.test_case "Manual checkpoint truncates covered logs" `Quick
      test_manual_checkpoint_truncates;
    Alcotest.test_case "Every_frames auto-checkpoints" `Quick
      test_every_frames_auto_checkpoint;
    Alcotest.test_case "Every_frames: indexes verify after every log" `Quick
      test_every_frames_indexes_verify;
    Alcotest.test_case "checkpoint/recover round trip" `Quick
      test_checkpoint_recover_roundtrip;
    Alcotest.test_case "ingest after a bulk load" `Quick test_ingest_after_bulk_load;
    Alcotest.test_case "recovery golden" `Quick test_recovery_golden;
    Test_pql.pinned prop_entry_ingest;
  ]
