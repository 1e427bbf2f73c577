(* pvcheck: the offline verifier finds nothing on volumes built by the
   real stack, and a volume seeded with corruption class C yields
   findings from exactly C's pass — both directions of the fsck
   contract. *)

open Pass_core

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let fail_report what report =
  Alcotest.failf "%s:@ %a" what Pvcheck.pp_report report

(* --- clean volumes: every tier-1 workload -------------------------------- *)

let workload_db (w : Runner.workload) =
  let sys = Runner.local_system System.Pass in
  w.Runner.run sys;
  ignore (System.drain sys : int);
  Option.get (System.waldo_db sys "vol0")

let test_clean_workloads () =
  List.iter
    (fun (w : Runner.workload) ->
      let db = workload_db w in
      let report = Pvcheck.check_db ~volume:"vol0" db in
      if not (Pvcheck.clean report) then
        fail_report (w.Runner.wl_name ^ ": clean volume flagged") report;
      check tbool (w.Runner.wl_name ^ ": graph nonempty") true (report.Pvcheck.r_nodes > 0);
      (* all five graph passes ran (no orphan inputs in check_db) *)
      check tint (w.Runner.wl_name ^ ": passes ran") 5
        (List.length report.Pvcheck.r_passes))
    (Runner.standard ~scale:0.12 ())

(* --- mutation harness: each corruption class trips exactly its pass ------- *)

let mutation_case db clazz =
  let cname = Pvmutate.name clazz in
  let before = Pvcheck.check_db db in
  if not (Pvcheck.clean before) then fail_report (cname ^ ": dirty before injection") before;
  let desc = Pvmutate.inject db clazz in
  let report = Pvcheck.check_db db in
  let expected = Pvmutate.flagged_by clazz in
  check tbool
    (Printf.sprintf "%s (%s): detected" cname desc)
    true
    (report.Pvcheck.r_findings <> []);
  List.iter
    (fun (f : Pvcheck.finding) ->
      check tstr (cname ^ ": flagged by its own pass only") expected f.Pvcheck.f_pass)
    report.Pvcheck.r_findings

let test_mutations_on_handbuilt () =
  List.iter
    (fun clazz ->
      let db, _, _, _, _, _ = Test_pql.sample_db () in
      mutation_case db clazz)
    Pvmutate.all

let test_mutations_on_workload () =
  (* the same property over a graph the production stack built *)
  let wl =
    List.find
      (fun (w : Runner.workload) -> String.equal w.Runner.wl_name "Mercurial Activity")
      (Runner.standard ~scale:0.05 ())
  in
  List.iter (fun clazz -> mutation_case (workload_db wl) clazz) Pvmutate.all

let test_class_names_roundtrip () =
  List.iter
    (fun clazz ->
      check tbool (Pvmutate.name clazz ^ " roundtrips") true
        (Pvmutate.of_name (Pvmutate.name clazz) = Some clazz);
      check tbool
        (Pvmutate.name clazz ^ " targets a real pass")
        true
        (List.mem (Pvmutate.flagged_by clazz) Pvcheck.pass_names))
    Pvmutate.all

(* --- offline fsck: checkpointed db + live WAP log + recovery agreement ---- *)

(* A Lasagna volume on a crashable disk with a Waldo attached. *)
let rig ?policy ?compact_keep () =
  let disk, ext3, lasagna, waldo, _registry = Test_waldo.fresh_ckpt ?policy ?compact_keep () in
  (disk, Ext3.ops ext3, lasagna, waldo)

let crash_and_remount disk =
  Simdisk.Disk.crash disk;
  Simdisk.Disk.revive disk;
  Ext3.ops (Ext3.mount disk)

let test_fsck_offline () =
  let _disk, lower, lasagna, waldo = rig () in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  Helpers.ok (Dpapi.disclose ep h [ Record.name "offline.dat" ]);
  ignore (Waldo.finalize waldo lasagna : int);
  Helpers.ok_fs (Waldo.checkpoint waldo);
  (* leave an unfinished transaction in a live log: fsck must replay it
     and find Recovery and Waldo agreeing that it is orphaned *)
  ignore
    (Helpers.ok
       (Lasagna.write_txn_bundle ~txn:3 lasagna h ~off:0 ~data:None
          [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str "late") ] ])
      : int);
  let report = Helpers.ok_fs (Pvcheck.fsck ~lower ~volume:"vol0" ()) in
  check tbool "orphan-agreement ran" true
    (List.mem "orphan-agreement" report.Pvcheck.r_passes);
  if not (Pvcheck.clean report) then fail_report "offline fsck flagged a clean volume" report;
  check tbool "replayed log contributed records" true (report.Pvcheck.r_quads > 0)

let ingest_objects lasagna waldo n =
  let ep = Lasagna.endpoint lasagna in
  for i = 0 to n - 1 do
    let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
    Helpers.ok
      (Dpapi.disclose ep h
         [ Record.name (Printf.sprintf "obj%d" i); Record.make "PARAMS" (Pvalue.Int i) ])
  done;
  ignore (Waldo.finalize waldo lasagna : int)

(* fsck must see the graph the daemon's restart rebuilds, and both must
   equal the live db the crash interrupted. *)
let check_agreement what ~live lower =
  let report = Helpers.ok_fs (Pvcheck.fsck ~lower ~volume:"vol0" ()) in
  if not (Pvcheck.clean report) then fail_report (what ^ ": fsck flagged a healthy volume") report;
  let w, _info = Helpers.ok_fs (Waldo.recover ~lower ()) in
  let db = Waldo.db w in
  check tint (what ^ ": fsck nodes = live") (Provdb.node_count live) report.Pvcheck.r_nodes;
  check tint (what ^ ": fsck quads = live") (Provdb.quad_count live) report.Pvcheck.r_quads;
  check tint (what ^ ": fsck nodes = recover") (Provdb.node_count db) report.Pvcheck.r_nodes;
  check tint (what ^ ": fsck quads = recover") (Provdb.quad_count db) report.Pvcheck.r_quads

let test_fsck_agrees_with_restart () =
  List.iter
    (fun (what, policy) ->
      let disk, _lower, lasagna, waldo = rig ~policy () in
      ingest_objects lasagna waldo 10;
      Helpers.ok_fs (Waldo.checkpoint waldo);
      let live = Waldo.db waldo in
      check tint (what ^ ": live quads") 20 (Provdb.quad_count live);
      check_agreement what ~live (crash_and_remount disk))
    [
      ("Manual", Waldo.Manual);
      ("Every_frames 8", Waldo.Every_frames 8);
    ]

(* A never-checkpointed volume with a stand-alone image left in the
   checkpoint directory: the image is a stray, not a second restart
   path, so fsck and recover both replay the retained logs and drop it. *)
let test_fsck_ignores_stray_image () =
  let disk, lower, lasagna, waldo = rig () in
  ingest_objects lasagna waldo 10;
  let stray = Checkpoint.path "db.dat" in
  ignore
    (Helpers.ok_fs (Checkpoint.write_atomic lower ~path:stray (Provdb.serialize (Waldo.db waldo)))
      : string);
  let lower = crash_and_remount disk in
  check_agreement "stray db.dat" ~live:(Waldo.db waldo) lower;
  check tbool "stray image removed" true (Vfs.lookup_path lower stray = Error Vfs.ENOENT)

(* Garbage over any file a checkpoint consists of makes both the restart
   (recover, then the eager archive fault-in) and fsck fail with EIO —
   never a half-loaded or partial graph. *)
let test_damaged_checkpoint_is_eio () =
  let damaged name =
    let disk, _lower, lasagna, waldo = rig ~compact_keep:1 () in
    let ep = Lasagna.endpoint lasagna in
    let hs = Array.init 4 (fun _ -> Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0"))) in
    for round = 1 to 3 do
      Array.iter
        (fun h ->
          Helpers.ok (Dpapi.disclose ep h [ Record.make "PARAMS" (Pvalue.Int round) ]);
          ignore (Helpers.ok (ep.pass_freeze h) : int))
        hs
    done;
    (* an open transaction, so the checkpoint carries a pending sidecar *)
    ignore
      (Helpers.ok
         (Lasagna.write_txn_bundle ~txn:7 lasagna hs.(0) ~off:0 ~data:None
            [ Dpapi.entry hs.(0) [ Record.make "PARAMS" (Pvalue.Str "open") ] ])
        : int);
    Lasagna.flush_log lasagna;
    Helpers.ok_fs (Waldo.checkpoint waldo);
    let lower = crash_and_remount disk in
    let path = Checkpoint.path name in
    check tbool (name ^ " exists") true (Result.is_ok (Vfs.lookup_path lower path));
    ignore (Helpers.ok_fs (Vfs.write_file lower path "garbage") : Vfs.ino);
    lower
  in
  let expect_eio what = function
    | Error Vfs.EIO -> ()
    | Ok _ -> Alcotest.failf "%s: damaged checkpoint accepted" what
    | Error e -> Alcotest.failf "%s: unexpected errno %s" what (Vfs.errno_to_string e)
  in
  List.iter
    (fun name ->
      expect_eio (name ^ ": recover")
        (let lower = damaged name in
         Result.bind (Waldo.recover ~lower ()) (fun (w, _) -> Waldo.fault_in_archive w));
      expect_eio (name ^ ": fsck")
        (let lower = damaged name in
         Pvcheck.fsck ~lower ~volume:"vol0" ()))
    [
      Checkpoint.manifest_name;
      Checkpoint.image_name ~gen:1;
      Checkpoint.pending_name ~gen:1;
      Checkpoint.archive_name ~gen:1;
    ]

let test_fsck_empty_volume () =
  let disk = Simdisk.Disk.create ~clock:(Simdisk.Clock.create ()) () in
  let ext3 = Ext3.format disk in
  let report = Helpers.ok_fs (Pvcheck.fsck ~lower:(Ext3.ops ext3) ~volume:"vol0" ()) in
  check tbool "empty volume is clean" true (Pvcheck.clean report);
  check tint "no nodes" 0 report.Pvcheck.r_nodes

let test_report_json_shape () =
  let db, _, _, _, _, _ = Test_pql.sample_db () in
  ignore (Pvmutate.inject db Pvmutate.Dangling_xref : string);
  let report = Pvcheck.check_db ~volume:"vol0" db in
  let json = Pvcheck.report_to_json report in
  let open Telemetry.Json in
  (match member "schema" json with
  | Some (Str "pvcheck/v1") -> ()
  | _ -> Alcotest.fail "schema tag");
  (match member "findings" json with
  | Some (List (_ :: _)) -> ()
  | _ -> Alcotest.fail "findings list");
  (* the report renders and parses back *)
  check tbool "json roundtrips" true (of_string (to_string json) = json)

let test_telemetry_counters () =
  let registry = Telemetry.create () in
  let db, _, _, _, _, _ = Test_pql.sample_db () in
  ignore (Pvcheck.check_db ~registry db : Pvcheck.report);
  ignore (Pvmutate.inject db Pvmutate.Cycle : string);
  ignore (Pvcheck.check_db ~registry db : Pvcheck.report);
  let v name =
    match Telemetry.counter_value registry name with
    | Some n -> n
    | None -> Alcotest.failf "missing counter %s" name
  in
  check tint "two runs counted" 2 (v "pvcheck.runs");
  check tbool "findings counted" true (v "pvcheck.findings" > 0)

let suite =
  [
    Alcotest.test_case "clean on all tier-1 workloads" `Slow test_clean_workloads;
    Alcotest.test_case "mutations flagged (hand-built db)" `Quick test_mutations_on_handbuilt;
    Alcotest.test_case "mutations flagged (workload db)" `Slow test_mutations_on_workload;
    Alcotest.test_case "class names roundtrip" `Quick test_class_names_roundtrip;
    Alcotest.test_case "offline fsck with live log" `Quick test_fsck_offline;
    Alcotest.test_case "offline fsck on empty volume" `Quick test_fsck_empty_volume;
    Alcotest.test_case "fsck, restart and live db agree" `Quick test_fsck_agrees_with_restart;
    Alcotest.test_case "fsck ignores a stray image" `Quick test_fsck_ignores_stray_image;
    Alcotest.test_case "damaged checkpoint is EIO" `Quick test_damaged_checkpoint_is_eio;
    Alcotest.test_case "report json shape" `Quick test_report_json_shape;
    Alcotest.test_case "telemetry counters" `Quick test_telemetry_counters;
  ]
