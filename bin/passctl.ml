(* passctl: a command-line front end to the PASSv2 reproduction.

     dune exec bin/passctl.exe -- <command> [args]

   Commands:
     demo                      run the Figure 1 scenario and print the layered query
     query  <pql>              run a PQL query against a canned challenge-workflow run
     workload <name> [--mode]  run one Table 2 workload and print timing/space stats
     recordtypes               print the Table 1 record-type registry
     stats [--filter PREFIX]   print a telemetry snapshot of a canned run as JSON
     trace <name> [--json]     run one workload traced and print the span recording
     recover [VOLUME] [--json]  crash a volume mid-write and print the recovery report *)

module Record = Pass_core.Record
module Dpapi = Pass_core.Dpapi
module Ctx = Pass_core.Ctx
module Clock = Simdisk.Clock
module Disk = Simdisk.Disk

let ok = function Ok v -> v | Error e -> failwith (Vfs.errno_to_string e)

(* A local PASS machine that has run the canned challenge workflow once
   and drained, with the engine's I/O and a rerun of the workflow. *)
let canned_run () =
  let sys = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] () in
  let io, rerun =
    Challenge.run_canned sys ~input_dir:"/vol0/inputs" ~output_dir:"/vol0/results"
  in
  ignore (System.drain sys : int);
  (sys, io, rerun)

(* The canned run's database, which queries operate on. *)
let canned_db () =
  let sys, _, _ = canned_run () in
  Option.get (System.waldo_db sys "vol0")

(* One of Runner's standard workloads by name, or exit 1. *)
let workload name =
  match Runner.find name with
  | Ok w -> w
  | Error msg ->
      prerr_endline msg;
      exit 1

(* --- commands ----------------------------------------------------------------- *)

let cmd_demo () =
  let fig = Runner.figure1 () in
  let _ : Actor.io * (unit -> unit) =
    Challenge.run_canned fig.Runner.workstation ~input_dir:"/nfsA/inputs"
      ~output_dir:"/nfsB/results"
  in
  let merged = Runner.figure1_merged fig in
  let query =
    {|select Ancestor from Provenance.file as Atlas Atlas.input* as Ancestor
      where Atlas.name = "atlas-x.gif"|}
  in
  print_endline "Figure 1 scenario: Kepler on a workstation, inputs on server A, outputs on B";
  Printf.printf "query: %s\n\n" query;
  let prepared = Pql.Engine.prepare merged query in
  let rows = Pql.Engine.execute prepared in
  Format.printf "%a@." (Pql.pp_rows merged ~columns:(Pql.Engine.columns prepared)) rows

(* Shared by `query`: run one PQL string against [db], rendering the
   result per the flags.  Pql errors go to stderr and exit 1, matching
   the other subcommands' error discipline. *)
let run_query db q ~explain ~json =
  match
    let prepared = Pql.Engine.prepare db q in
    let rows = Pql.Engine.execute prepared in
    (prepared, rows)
  with
  | exception Pql.Error kind ->
      Printf.eprintf "passctl query: %s\n" (Pql.error_message kind);
      exit 1
  | prepared, rows ->
      let columns = Pql.Engine.columns prepared in
      if json then begin
        let open Telemetry.Json in
        let fields =
          [
            ("query", Str (Pql.Engine.text prepared));
            ("columns", List (Stdlib.List.map (fun c -> Str c) columns));
            ( "rows",
              List
                (Stdlib.List.map
                   (fun r -> List (Stdlib.List.map (fun cell -> Str cell) r))
                   (Pql.render db rows)) );
            ("row_count", Int (Stdlib.List.length rows));
          ]
        in
        let fields =
          if explain then
            fields @ [ ("plan", Str (Pql_plan.to_string (Pql.Engine.explain prepared))) ]
          else fields
        in
        print_endline (to_string (Obj fields))
      end
      else begin
        (* execute has filled in actual cardinalities, so --explain shows
           estimated vs. actual side by side *)
        if explain then Format.printf "%a@.@." Pql_plan.pp (Pql.Engine.explain prepared);
        Format.printf "%a@." (Pql.pp_rows db ~columns) rows
      end

let cmd_query q explain json = run_query (canned_db ()) q ~explain ~json

let cmd_recordtypes () = Report.table1 Format.std_formatter

let cmd_workload name nfs =
  let w = workload name in
  let row = Runner.measure ~nfs w in
  let base, pass = if nfs then ("NFS", "PA-NFS") else ("ext3", "PASSv2") in
  Printf.printf "%s: %s %.2fs, %s %.2fs, overhead %.1f%%\n" row.Runner.r_name base
    row.base_seconds pass row.pass_seconds row.overhead_pct;
  Option.iter
    (fun (sp : Runner.space_row) ->
      Printf.printf "space: data %.1f MB, provenance %.2f MB (%.1f%%), +indexes %.2f MB (%.1f%%)\n"
        sp.ext3_mb sp.prov_mb sp.prov_pct sp.total_mb sp.total_pct)
    row.r_space

(* A canned two-run scenario for the diff command: the challenge workflow
   run twice with one input modified in between (§3.1). *)
let cmd_diff () =
  let sys, io, rerun = canned_run () in
  let db = Option.get (System.waldo_db sys "vol0") in
  let atlas = List.hd (Provdb.find_by_name db "atlas-x.gif") in
  let v_first = (Option.get (Provdb.find_node db atlas)).Provdb.max_version in
  io.Actor.write_file "/vol0/inputs/anatomy2.img" "anatomy-image-2-MODIFIED";
  rerun ();
  ignore (System.drain sys : int);
  let v_second = (Option.get (Provdb.find_node db atlas)).Provdb.max_version in
  Printf.printf
    "ran the challenge workflow twice (anatomy2.img modified in between);\n\
     ancestry diff of atlas-x.gif v%d vs v%d, files only:\n\n" v_first v_second;
  let d = Provdiff.diff_versions db atlas ~version_a:v_first ~version_b:v_second in
  Format.printf "%a@." Provdiff.pp (Provdiff.files_only db d)

let cmd_export target =
  let db = canned_db () in
  let roots = match target with "" -> None | name -> Some (Provdb.find_by_name db name) in
  (match roots with
  | Some [] ->
      Printf.eprintf "no object named %S in the canned run\n" target;
      exit 1
  | _ -> ());
  print_string (Provdot.to_dot ?roots db)

let cmd_opm () =
  let db = canned_db () in
  print_string (Opm.to_string db)

(* Build a canned crashed volume (named [volume]), then run Recovery.scan
   over its remounted lower file system and print the report. *)
let cmd_recover volume json =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let ext3 = Ext3.format disk in
  let ctx = Ctx.create ~machine:1 in
  let lasagna =
    Lasagna.create ~lower:(Ext3.ops ext3) ~ctx ~volume ~charge:(Clock.advance clock) ()
  in
  let ops = Lasagna.ops lasagna in
  let ep = Lasagna.endpoint lasagna in
  let ino = ok (Vfs.create_path ops "/victim" Vfs.Regular) in
  let h = ok (Lasagna.file_handle lasagna ino) in
  Disk.schedule_crash disk ~after_writes:3;
  (match
     ep.pass_write h ~off:0 ~data:(Some (String.make 8192 'x'))
       [ Dpapi.entry h [ Record.name "victim" ] ]
   with
  | Error Dpapi.Ecrashed -> if not json then print_endline "crashed mid-write"
  | _ -> if not json then print_endline "unexpected");
  Disk.revive disk;
  let remounted = Ext3.mount disk in
  let report = ok (Recovery.scan (Ext3.ops remounted)) in
  if json then
    print_endline
      (Telemetry.Json.to_string
         (Telemetry.Json.Obj
            [ ("volume", Telemetry.Json.Str volume);
              ("report", Recovery.report_to_json report) ]))
  else begin
    Printf.printf "volume: %s\n" volume;
    Format.printf "%a@." Recovery.pp_report report;
    List.iter
      (fun (i : Recovery.inconsistency) ->
        Printf.printf "inconsistent: pnode=%d off=%d len=%d (%s)\n"
          (Pass_core.Pnode.to_int i.i_pnode) i.i_off i.i_len i.reason)
      report.inconsistent;
    List.iter (fun id -> Printf.printf "orphan txn: %d\n" id) report.open_txns
  end

(* Build a canned volume under a retention-mode Waldo, run enough history
   through it to rotate several WAP logs, take a checkpoint, write a
   post-checkpoint suffix, crash the disk, and recover from the MANIFEST —
   printing what bounded recovery actually did (DESIGN §13). *)
let cmd_checkpoint volume json =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let ext3 = Ext3.format disk in
  let lower = Ext3.ops ext3 in
  let ctx = Ctx.create ~machine:1 in
  let lasagna =
    Lasagna.create ~log_max:2048 ~lower ~ctx ~volume ~charge:(Clock.advance clock) ()
  in
  let waldo = Waldo.create ~compact_keep:1 ~lower () in
  Waldo.attach waldo lasagna;
  let ops = Lasagna.ops lasagna in
  let ep = Lasagna.endpoint lasagna in
  let write name i =
    let path = "/" ^ name in
    let ino =
      match Vfs.lookup_path ops path with
      | Ok ino -> ino
      | Error _ -> ok (Vfs.create_path ops path Vfs.Regular)
    in
    let h = ok (Lasagna.file_handle lasagna ino) in
    (* each round freezes the previous version first, so the volume
       accumulates real version history for compaction to archive *)
    match
      ep.pass_write h ~off:0 ~data:(Some (String.make 512 (Char.chr (97 + (i mod 26)))))
        [
          Dpapi.entry h
            [
              Record.make Record.Attr.freeze (Pass_core.Pvalue.Int i);
              Record.name name;
            ];
        ]
    with
    | Ok _ -> ()
    | Error e -> failwith (Dpapi.error_to_string e)
  in
  for i = 1 to 4 do
    for f = 0 to 5 do
      write (Printf.sprintf "file%d.dat" f) i
    done
  done;
  ignore (Waldo.finalize waldo lasagna : int);
  (match Waldo.checkpoint waldo with
  | Ok () -> ()
  | Error e -> failwith (Vfs.errno_to_string e));
  (* post-checkpoint traffic: the suffix recovery will replay *)
  for f = 0 to 1 do
    write (Printf.sprintf "file%d.dat" f) 5
  done;
  Lasagna.flush_log lasagna;
  Disk.crash disk;
  Disk.revive disk;
  let remounted = Ext3.mount disk in
  let _w, (info : Waldo.recovery_info) =
    ok (Waldo.recover ~lower:(Ext3.ops remounted) ())
  in
  if json then
    print_endline
      (Telemetry.Json.to_string
         (Telemetry.Json.Obj
            [
              ("volume", Telemetry.Json.Str volume);
              ("gen", Telemetry.Json.Int info.ri_gen);
              ("manifest", Telemetry.Json.Bool info.ri_manifest);
              ("watermark", Telemetry.Json.Int info.ri_watermark);
              ("logs_skipped", Telemetry.Json.Int info.ri_logs_skipped);
              ("logs_replayed", Telemetry.Json.Int info.ri_logs_replayed);
              ("frames_replayed", Telemetry.Json.Int info.ri_frames_replayed);
              ("pending_restored", Telemetry.Json.Int info.ri_pending_restored);
              ("archives", Telemetry.Json.Int info.ri_archives);
            ]))
  else begin
    Printf.printf "volume: %s\n" volume;
    Printf.printf
      "checkpoint gen %d covers logs below %d; recovery skipped %d log(s), \
       replayed %d log(s) / %d frame(s), restored %d in-flight txn(s), %d \
       archive segment(s)\n"
      info.ri_gen info.ri_watermark info.ri_logs_skipped info.ri_logs_replayed
      info.ri_frames_replayed info.ri_pending_restored info.ri_archives
  end

(* Offline verification.  Without --corrupt: build a canned volume whose
   Waldo database has been checkpointed and whose last transaction is
   still sitting in a live WAP log, then run the offline verifier over
   the lower file system — the real fsck path (Waldo.recover, archive
   fault-in, cross-check orphans against Recovery).  With --corrupt CLASS: seed one
   corruption into a canned graph and show the verifier flagging it. *)
let cmd_fsck volume json corrupt =
  let print_report report =
    if json then
      print_endline (Telemetry.Json.to_string (Pvcheck.report_to_json report))
    else Format.printf "%a@." Pvcheck.pp_report report;
    if Pvcheck.clean report then 0 else 1
  in
  let status =
    match corrupt with
    | Some cname -> (
        match Pvmutate.of_name cname with
        | None ->
            Printf.eprintf "unknown corruption class %S (one of: %s)\n" cname
              (String.concat ", " (List.map Pvmutate.name Pvmutate.all));
            2
        | Some clazz ->
            let db = canned_db () in
            let desc = Pvmutate.inject db clazz in
            if not json then Printf.printf "seeded: %s\n" desc;
            print_report (Pvcheck.check_db ~volume db))
    | None ->
        let clock = Clock.create () in
        let disk = Disk.create ~clock () in
        let ext3 = Ext3.format disk in
        let lower = Ext3.ops ext3 in
        let ctx = Ctx.create ~machine:1 in
        let lasagna = Lasagna.create ~lower ~ctx ~volume ~charge:(Clock.advance clock) () in
        let waldo = Waldo.create ~lower () in
        Waldo.attach waldo lasagna;
        let ops = Lasagna.ops lasagna in
        let ep = Lasagna.endpoint lasagna in
        let ino = ok (Vfs.create_path ops "/report.dat" Vfs.Regular) in
        let h = ok (Lasagna.file_handle lasagna ino) in
        (match
           ep.pass_write h ~off:0 ~data:(Some (String.make 4096 'r'))
             [ Dpapi.entry h [ Record.name "report.dat" ] ]
         with
        | Ok _ -> ()
        | Error e -> failwith (Dpapi.error_to_string e));
        ignore (Waldo.finalize waldo lasagna : int);
        (match Waldo.checkpoint waldo with
        | Ok () -> ()
        | Error e -> failwith (Vfs.errno_to_string e));
        (* one transaction still in a live log when the verifier runs *)
        (match
           Lasagna.write_txn_bundle ~txn:11 lasagna h ~off:0 ~data:None
             [ Dpapi.entry h [ Record.make "PARAMS" (Pass_core.Pvalue.Str "in-flight") ] ]
         with
        | Ok _ -> ()
        | Error e -> failwith (Dpapi.error_to_string e));
        print_report (ok (Pvcheck.fsck ~lower ~volume ()))
  in
  exit status

(* --- cmdliner wiring ----------------------------------------------------------- *)

open Cmdliner

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Run the Figure 1 layered-query scenario")
    Term.(const cmd_demo $ const ())

let query_cmd =
  let q =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PQL" ~doc:"The PQL query to run")
  in
  let explain =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Print the chosen plan (with estimated vs. actual cardinalities) \
                   before the rows.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the result (and plan) as JSON.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Run a PQL query against a canned Provenance-Challenge workflow run")
    Term.(const cmd_query $ q $ explain $ json)

let recordtypes_cmd =
  Cmd.v (Cmd.info "recordtypes" ~doc:"Print the Table 1 record-type registry")
    Term.(const cmd_recordtypes $ const ())

(* The workload a command runs, by its Runner slug. *)
let workload_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME"
         ~doc:"Workload (linux-compile, postmark, mercurial-activity, blast, pa-kepler)")

let workload_cmd =
  let nfs = Arg.(value & flag & info [ "nfs" ] ~doc:"Measure the NFS configuration instead") in
  Cmd.v (Cmd.info "workload" ~doc:"Run one Table 2 workload and print measurements")
    Term.(const cmd_workload $ workload_arg $ nfs)

let diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Run the challenge workflow twice (one input modified) and diff the ancestries")
    Term.(const cmd_diff $ const ())

let export_cmd =
  let target =
    Arg.(value & pos 0 string "" & info [] ~docv:"NAME"
           ~doc:"Restrict to the ancestry cone of this object (empty = whole graph)")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export the canned run's provenance graph as Graphviz dot")
    Term.(const cmd_export $ target)

let opm_cmd =
  Cmd.v
    (Cmd.info "opm"
       ~doc:"Export the canned run's provenance as Open-Provenance-Model XML")
    Term.(const cmd_opm $ const ())

(* Run the canned challenge workflow against a fresh registry and print the
   full telemetry snapshot as JSON — every layer's named instruments plus
   the DPAPI hot-path span histograms.  [filter] restricts the snapshot to
   instruments under a dotted-name prefix (see Telemetry.name_under); trace
   shares the same prefix semantics for span names. *)
let cmd_stats filter =
  let sys, _, _ = canned_run () in
  print_endline (Telemetry.to_json ?filter (System.telemetry sys))

(* A PREFIX conv that rejects what Telemetry.validate_prefix rejects, so
   `--filter ""` is a usage error instead of silently matching every
   instrument. *)
let prefix_conv =
  let parse s =
    match Telemetry.validate_prefix s with
    | Ok s -> Ok s
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"PREFIX" (parse, Format.pp_print_string)

let filter_arg ~what =
  Arg.(value & opt (some prefix_conv) None
       & info [ "filter" ] ~docv:"PREFIX"
           ~doc:(Printf.sprintf
                   "Keep only %s under this dotted-name prefix (e.g. \
                    \"analyzer\" or \"panfs.client\").  Must be non-empty." what))

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run the canned challenge workflow and print its telemetry snapshot as JSON")
    Term.(const cmd_stats $ filter_arg ~what:"instruments")

(* Run one workload under an enabled tracer and export the flight
   recorder.  Local PASS configuration by default; --nfs swaps in the
   PA-NFS client/server pair, whose server spans parent onto client RPC
   spans across the simulated wire. *)
let cmd_trace name nfs json filter =
  let w = workload name in
  let tracer = Pvtrace.create () in
  let _ : System.t = Runner.run ~tracer ~monitor:Pvmon.disabled ~nfs w in
  if json then print_endline (Telemetry.Json.to_string (Pvtrace.to_json ?filter tracer))
  else print_endline (Pvtrace.to_chrome ?filter tracer)

let trace_cmd =
  let nfs =
    Arg.(value & flag & info [ "nfs" ] ~doc:"Trace the PA-NFS configuration instead")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit pvtrace/v1 JSON instead of Chrome trace-event format")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one workload with tracing on and print the span flight recorder \
             (Chrome trace-event JSON by default; load it in Perfetto)")
    Term.(const cmd_trace $ workload_arg $ nfs $ json $ filter_arg ~what:"spans")

(* Run one workload with the monitor (and the tracer it folds) enabled,
   ending with a forced scrape so end-of-run gauge values are captured,
   and hand back the populated monitor. *)
let run_monitored name nfs =
  let w = workload name in
  let monitor = Pvmon.create () in
  let sys = Runner.run ~tracer:(Pvtrace.create ()) ~monitor ~nfs w in
  Pvmon.scrape monitor (System.Clock.now (System.clock sys));
  monitor

let cmd_monitor name nfs json flamegraph =
  let monitor = run_monitored name nfs in
  if json then print_endline (Telemetry.Json.to_string (Pvmon.to_json monitor))
  else if flamegraph then print_string (Pvmon.to_flamegraph monitor)
  else print_string (Pvmon.to_openmetrics monitor)

let monitor_cmd =
  let nfs =
    Arg.(value & flag & info [ "nfs" ] ~doc:"Monitor the PA-NFS configuration instead")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the pvmon/v1 JSON artifact instead of OpenMetrics text")
  in
  let flamegraph =
    Arg.(value & flag
         & info [ "flamegraph" ]
             ~doc:"Emit collapsed call stacks (exact per-layer self times) for \
                   flamegraph.pl or speedscope instead of OpenMetrics text")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Run one workload under pvmon and print its metrics exposition \
             (OpenMetrics text by default — Prometheus-scrapable; --json for \
             the full pvmon/v1 artifact with time series, attribution, \
             alerts and slow ops; --flamegraph for collapsed stacks)")
    Term.(const cmd_monitor $ workload_arg $ nfs $ json $ flamegraph)

let cmd_top name nfs =
  let monitor = run_monitored name nfs in
  let total = Pvmon.traced_total_ns monitor in
  let ms ns = float_of_int ns /. 1e6 in
  Printf.printf "%-12s %12s %12s %7s %8s\n" "layer" "self(ms)" "total(ms)" "self%" "spans";
  List.iter
    (fun r ->
      Printf.printf "%-12s %12.3f %12.3f %6.1f%% %8d\n" r.Pvmon.lr_layer
        (ms r.Pvmon.lr_self_ns) (ms r.Pvmon.lr_total_ns)
        (if total = 0 then 0.
         else 100. *. float_of_int r.Pvmon.lr_self_ns /. float_of_int total)
        r.Pvmon.lr_spans)
    (Pvmon.attribution monitor);
  Printf.printf "%-12s %12.3f %12s %6.1f%% %8d\n" "traced" (ms total) "" 100.
    (Pvmon.traced_spans monitor);
  match Pvmon.firing monitor with
  | [] -> ()
  | rules -> Printf.printf "firing: %s\n" (String.concat ", " rules)

let top_cmd =
  let wl_name =
    Arg.(value & pos 0 string "postmark" & info [] ~docv:"NAME"
           ~doc:"Workload name (default postmark)")
  in
  let nfs =
    Arg.(value & flag & info [ "nfs" ] ~doc:"Profile the PA-NFS configuration instead")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Run one workload under pvmon and print the per-layer self/total \
             time table (exact attribution folded from the span stream)")
    Term.(const cmd_top $ wl_name $ nfs)

let recover_cmd =
  let volume =
    Arg.(value & pos 0 string "vol0" & info [] ~docv:"VOLUME" ~doc:"Volume name to recover.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the recovery report as JSON.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Crash a volume mid-write, then run WAP recovery and print the report")
    Term.(const cmd_recover $ volume $ json)

let checkpoint_cmd =
  let volume =
    Arg.(value & pos 0 string "vol0" & info [] ~docv:"VOLUME" ~doc:"Volume name to checkpoint.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the recovery summary as JSON.")
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Checkpoint a canned volume, crash it, and show bounded recovery \
             replaying only the post-watermark log suffix")
    Term.(const cmd_checkpoint $ volume $ json)

let fsck_cmd =
  let volume =
    Arg.(value & pos 0 string "vol0" & info [] ~docv:"VOLUME" ~doc:"Volume name to verify.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  let corrupt =
    Arg.(value & opt (some string) None
         & info [ "corrupt" ] ~docv:"CLASS"
             ~doc:"Seed one corruption class first (cycle, dangling-ancestor, \
                   duplicate-record, broken-version-chain, dangling-xref).")
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"Verify a volume's stored provenance graph offline (exit 1 on findings)")
    Term.(const cmd_fsck $ volume $ json $ corrupt)

(* Both static analyzers in-process (no subprocess spawning), sharing
   the exact implementation CI runs: passlint's per-file convention
   rules, then passarch's whole-tree layer-contract passes. *)
let cmd_lint json stale =
  let lint = Passlint_core.run ~json ~stale_check:stale () in
  let arch = Passarch_core.run ~json ~stale_check:stale () in
  exit (max lint arch)

let lint_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit findings as JSON.") in
  let stale =
    Arg.(value & flag
         & info [ "stale-allowlist" ]
             ~doc:"Also fail when an allowlist entry matches no finding.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run passlint and passarch over the tree (run from the repo \
             root; exit 1 on findings)")
    Term.(const cmd_lint $ json $ stale)

let () =
  let info =
    Cmd.info "passctl" ~version:"1.0"
      ~doc:"PASSv2 reproduction: layered provenance collection and query"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ demo_cmd; query_cmd; recordtypes_cmd; workload_cmd; stats_cmd; trace_cmd;
            monitor_cmd; top_cmd; diff_cmd; export_cmd; opm_cmd; recover_cmd;
            checkpoint_cmd; fsck_cmd; lint_cmd ]))
