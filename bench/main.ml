(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 7), runs the ablation studies DESIGN.md
   calls out, and finishes with Bechamel microbenchmarks of the hot paths.

   Sections:
     FIG2     architecture self-check (the seven PASSv2 components)
     TABLE1   record types per PA application
     TABLE2   elapsed-time overheads, ext3 vs PASSv2 and NFS vs PA-NFS
     TABLE3   space overheads
     FIG1/PQL the layered two-server scenario + the paper's sample query
     ABLATION cycle avoidance vs PASSv1 detection; dedup; WAP; NFS txns
     MICRO    Bechamel microbenchmarks (one per table) *)

module Record = Pass_core.Record
module Pvalue = Pass_core.Pvalue
module Ctx = Pass_core.Ctx
module Dpapi = Pass_core.Dpapi
module Analyzer = Pass_core.Analyzer
module Cycle_detect = Pass_core.Cycle_detect

let section name = Printf.printf "\n==================== %s ====================\n" name

(* fire-and-forget disclose: benchmarks drive the analyzer for its side
   effects and drop the (always-Ok) result with the type pinned *)
let disclose_ ep h records =
  let _ : (unit, Dpapi.error) result = Dpapi.disclose ep h records in
  ()

module J = Telemetry.Json

let counter registry name = Option.value (Telemetry.counter_value registry name) ~default:0

(* --- FIG 2: architecture self-check ---------------------------------------- *)

let fig2 () =
  section "FIG2: PASSv2 architecture";
  let sys = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] () in
  let stack = Option.get (Kernel.pass_stack (System.kernel sys)) in
  let volume = List.hd (System.volumes sys) in
  let idle name = Telemetry.counter_value (System.telemetry sys) name = Some 0 in
  let checks =
    [
      ("libpass (user-level DPAPI)", System.app_endpoint sys ~pid:Kernel.init_pid <> None);
      ("interceptor (syscall hooks)", Kernel.pass_stack (System.kernel sys) <> None);
      ("observer", idle "observer.events");
      ("analyzer", idle "analyzer.records_in");
      ("distributor", Pass_core.Distributor.cached_object_count stack.Kernel.distributor = 0);
      ("lasagna (PA file system)", volume.System.v_lasagna <> None);
      ("waldo (log -> database daemon)", volume.System.v_waldo <> None);
    ]
  in
  List.iter (fun (name, ok) -> Printf.printf "  [%s] %s\n" (if ok then "ok" else "??") name) checks;
  Printf.printf "  DPAPI chain: libpass -> observer -> analyzer -> distributor -> lasagna -> waldo\n"

(* --- TABLE 2 / TABLE 3 ------------------------------------------------------ *)

let paper_table2 =
  (* (name, local overhead %, nfs overhead %) as published *)
  [
    ("Linux Compile", 15.6, 1.0);
    ("Postmark", 11.5, 16.8);
    ("Mercurial Activity", 23.1, 8.7);
    ("Blast", 0.7, 1.9);
    ("PA-Kepler", 1.4, 2.5);
  ]

let table2_and_3 () =
  section "TABLE2: elapsed-time overheads";
  (* PASS_BENCH_SCALE scales workload op counts (1.0 = default; the paper's
     full sizes are ~10x) *)
  let scale =
    match Sys.getenv_opt "PASS_BENCH_SCALE" with
    | Some s -> (try float_of_string s with _ -> 1.0)
    | None -> 1.0
  in
  if scale <> 1.0 then Printf.printf "(workload scale: %.2fx)\n" scale;
  (* one registry across all PASS-configuration runs: the embedded
     telemetry snapshot describes the whole benchmark's pipeline work *)
  let registry = Telemetry.create () in
  let wls = Runner.standard ~scale () in
  let local = List.map (Runner.measure_local ~registry) wls in
  let nfs = List.map (Runner.measure_nfs ~registry) wls in
  Report.table2 Format.std_formatter ~local ~nfs;
  Printf.printf "\nPaper-reported overheads for comparison (shape, not absolute numbers):\n";
  List.iter
    (fun (name, l, n) -> Printf.printf "  %-20s local %5.1f%%   nfs %5.1f%%\n" name l n)
    paper_table2;
  section "TABLE3: space overheads";
  let rows = List.map Runner.measure_space wls in
  Report.table3 Format.std_formatter ~rows;
  Printf.printf
    "\nPaper-reported: Linux Compile 6.9%%/18.4%%, Postmark 0.1%%/0.1%%, Mercurial 1.8%%/3.4%%,\n\
    \                Blast 1.1%%/3.8%%, PA-Kepler 4.7%%/14.2%% (provenance / +indexes)\n";
  (scale, registry, local, nfs, rows)

(* --- FIG 1 + the paper's PQL query ------------------------------------------ *)

let fig1 () =
  section "FIG1: layered query across two NFS servers and a workstation";
  let sys = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "local" ] () in
  let clock = System.clock sys in
  let ctx = Kernel.ctx (System.kernel sys) in
  let server_a = Server.create ~mode:Server.Pass_enabled ~clock ~machine:21 ~volume:"nfsA" () in
  let server_b = Server.create ~mode:Server.Pass_enabled ~clock ~machine:22 ~volume:"nfsB" () in
  let net = Proto.net clock in
  let ca = Client.create ~net ~handler:(Server.handle server_a) ~ctx ~mount_name:"nfsA" () in
  let cb = Client.create ~net ~handler:(Server.handle server_b) ~ctx ~mount_name:"nfsB" () in
  System.mount_external sys ~name:"nfsA" ~ops:(Client.ops ca) ~endpoint:(Client.endpoint ca)
    ~file_handle:(Client.file_handle ca)
    ~flush:(fun () -> Client.flush ca) ();
  System.mount_external sys ~name:"nfsB" ~ops:(Client.ops cb) ~endpoint:(Client.endpoint cb)
    ~file_handle:(Client.file_handle cb)
    ~flush:(fun () -> Client.flush cb) ();
  (* the workflow engine runs the Provenance Challenge workflow, reading
     inputs from server A and writing the atlas images to server B *)
  let engine = Kernel.fork (System.kernel sys) ~parent:Kernel.init_pid in
  let io = Kepler_run.io_of_system sys ~pid:engine in
  Challenge.prepare_inputs ~input_dir:"/nfsA/inputs" io;
  let wf = Challenge.workflow ~input_dir:"/nfsA/inputs" ~output_dir:"/nfsB/results" in
  ignore (Kepler_run.run sys ~pid:engine wf : Director.result);
  ignore (System.drain sys : int);
  ignore (Server.drain server_a : int);
  ignore (Server.drain server_b : int);
  let merged = Provdb.create () in
  Provdb.merge_into ~dst:merged ~src:(Option.get (System.waldo_db sys "local"));
  Provdb.merge_into ~dst:merged ~src:(Option.get (Server.db server_a));
  Provdb.merge_into ~dst:merged ~src:(Option.get (Server.db server_b));
  let query =
    {|select Ancestor
      from Provenance.file as Atlas
           Atlas.input* as Ancestor
      where Atlas.name = "atlas-x.gif"|}
  in
  Printf.printf "query (paper §5.7):\n%s\n\n" query;
  let pql_names db q = Pql.names_of_rows db Pql.Engine.(execute (prepare db q)) in
  let names = pql_names merged query in
  Printf.printf "ancestors of atlas-x.gif across all three volumes (%d distinct names):\n"
    (List.length names);
  List.iter (fun n -> Printf.printf "  %s\n" n) names;
  let b_only = pql_names (Option.get (Server.db server_b)) query in
  Printf.printf
    "\nwithout layering, server B alone sees %d names (no workflow operators, no inputs)\n"
    (List.length b_only)

(* --- ABLATIONS --------------------------------------------------------------- *)

let null_endpoint ctx =
  {
    Dpapi.pass_read =
      (fun h ~off:_ ~len:_ ->
        Ok { Dpapi.data = ""; r_pnode = h.pnode; r_version = Ctx.current_version ctx h.pnode });
    pass_write = (fun h ~off:_ ~data:_ _ -> Ok (Ctx.current_version ctx h.pnode));
    pass_freeze = (fun h -> Ok (Ctx.freeze ctx h.pnode));
    pass_mkobj = (fun ~volume:_ -> Ok (Dpapi.handle (Ctx.fresh ctx)));
    pass_reviveobj = (fun p _ -> Ok (Dpapi.handle p));
    pass_sync = (fun _ -> Ok ());
  }

let ablation_cycles () =
  section "ABLATION: cycle avoidance (PASSv2) vs global detection (PASSv1)";
  let n = 20_000 in
  let seed = 123 in
  let events =
    (* the workloads' seeded LCG: identical stream on every OCaml version *)
    let st = Wk.rng seed in
    List.init n (fun _ ->
        let b = Wk.rand st 2 = 1 in
        let p = Wk.rand st 40 in
        let f = Wk.rand st 40 in
        (b, p, f))
  in
  (* PASSv2: the analyzer's local rule *)
  let ctx = Ctx.create ~machine:1 in
  let registry = Telemetry.create () in
  let an = Analyzer.create ~registry ~ctx ~lower:(null_endpoint ctx) () in
  let ep = Analyzer.endpoint an in
  let procs = Array.init 40 (fun _ -> Dpapi.handle (Ctx.fresh ctx)) in
  let files = Array.init 40 (fun _ -> Dpapi.handle ~volume:"v" (Ctx.fresh ctx)) in
  let t0 = Sys.time () in
  List.iter
    (fun (is_read, pi, fi) ->
      let p = procs.(pi) and f = files.(fi) in
      if is_read then
        disclose_ ep p [ Record.input_of f.pnode (Ctx.current_version ctx f.pnode) ]
      else
        disclose_ ep f [ Record.input_of p.pnode (Ctx.current_version ctx p.pnode) ])
    events;
  let v2_time = Sys.time () -. t0 in
  (* PASSv1: global graph + DFS + merge *)
  let cd = Cycle_detect.create () in
  let pnode i = Pass_core.Pnode.of_int (i + 1) in
  let t0 = Sys.time () in
  List.iter
    (fun (is_read, pi, fi) ->
      if is_read then Cycle_detect.add_edge cd (pnode pi, 0) (pnode (fi + 100), 0)
      else Cycle_detect.add_edge cd (pnode (fi + 100), 0) (pnode pi, 0))
    events;
  let v1_time = Sys.time () -. t0 in
  Printf.printf "  %d read/write events over 40 processes x 40 files\n" n;
  Printf.printf
    "  PASSv2 cycle avoidance: %d freezes (extra versions), %d adoptions avoided a freeze, %.2f us/event\n"
    (counter registry "analyzer.freezes") (counter registry "analyzer.adoptions")
    (v2_time *. 1e6 /. float_of_int n);
  Printf.printf "  PASSv1 global detection: %d merges, %d DFS probe steps, %.2f us/event\n"
    (Cycle_detect.merges cd) (Cycle_detect.probe_steps cd)
    (v1_time *. 1e6 /. float_of_int n);
  Printf.printf "  (v1 merges lose object identity; v2 pays with extra versions instead)\n"

let ablation_dedup () =
  section "ABLATION: analyzer duplicate elimination on/off";
  let run dedup =
    let ctx = Ctx.create ~machine:1 in
    let writes = ref 0 in
    let records = ref 0 in
    let base = null_endpoint ctx in
    let counting =
      {
        base with
        Dpapi.pass_write =
          (fun h ~off:_ ~data:_ bundle ->
            incr writes;
            List.iter
              (fun (e : Dpapi.bundle_entry) -> records := !records + List.length e.records)
              bundle;
            Ok (Ctx.current_version ctx h.pnode));
      }
    in
    let an = Analyzer.create ~dedup ~ctx ~lower:counting () in
    let ep = Analyzer.endpoint an in
    let f = Dpapi.handle ~volume:"v" (Ctx.fresh ctx) in
    let p = Dpapi.handle (Ctx.fresh ctx) in
    (* a process writing a 4 MB file in 4 KB chunks: 1024 identical records *)
    for _ = 1 to 1024 do
      disclose_ ep f [ Record.input_of p.pnode 0 ]
    done;
    (!writes, !records)
  in
  let w_on, r_on = run true in
  let w_off, r_off = run false in
  Printf.printf "  1024 chunked writes of one file by one process:\n";
  Printf.printf "  dedup on:  %4d storage writes, %4d records\n" w_on r_on;
  Printf.printf "  dedup off: %4d storage writes, %4d records  (%.0fx amplification)\n" w_off
    r_off
    (float_of_int r_off /. float_of_int (max 1 r_on))

let ablation_wap () =
  section "ABLATION: WAP log vs PASSv1-style direct database writes";
  let registry = Telemetry.create () in
  let sys = System.create ~registry ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] () in
  Kepler_wl.run sys ~parent:Kernel.init_pid;
  ignore (System.drain sys : int);
  let sp = System.space sys in
  let log_bytes = counter registry "wap.bytes_written" in
  Printf.printf "  PA-Kepler workload, provenance bytes on the critical path:\n";
  Printf.printf "  PASSv2 (WAP log, database deferred to Waldo): %7d bytes\n" log_bytes;
  Printf.printf "  PASSv1 (database + indexes written in-line):  %7d bytes (%.1fx)\n"
    (sp.System.sp_db_bytes + sp.System.sp_index_bytes)
    (float_of_int (sp.System.sp_db_bytes + sp.System.sp_index_bytes)
    /. float_of_int (max 1 log_bytes))

let ablation_nfs_txn () =
  section "ABLATION: PA-NFS transaction encapsulation";
  let clock = Simdisk.Clock.create () in
  let server = Server.create ~mode:Server.Pass_enabled ~clock ~machine:9 ~volume:"nfs0" () in
  let net = Proto.net clock in
  let ctx = Ctx.create ~machine:8 in
  let client = Client.create ~net ~handler:(Server.handle server) ~ctx ~mount_name:"nfs0" () in
  let ino =
    match Vfs.write_file (Client.ops client) "/big" "seed" with
    | Ok ino -> ino
    | Error _ -> failwith "setup"
  in
  let h = match Client.file_handle client ino with Ok h -> h | Error _ -> failwith "handle" in
  let records =
    List.init 4000 (fun i -> Record.make "PARAMS" (Pvalue.Str (Printf.sprintf "p%06d" i)))
  in
  let before = net.Proto.messages in
  (match Client.pass_write client h ~off:0 ~data:(Some "payload") [ Dpapi.entry h records ] with
  | Ok _ -> ()
  | Error e -> failwith (Dpapi.error_to_string e));
  (* each RPC is two datagrams on the wire (request + response) *)
  let rpcs = (net.Proto.messages - before) / 2 in
  let prov_bytes = Dpapi.bundle_size [ Dpapi.entry h records ] in
  Printf.printf "  one pass_write with %d bytes of provenance (> 64 KB block size):\n" prov_bytes;
  Printf.printf "  RPCs used: %d (OP_BEGINTXN + %d OP_PASSPROV chunks + OP_PASSWRITE)\n"
    rpcs (rpcs - 2);
  Printf.printf "  orphan cleanup: a client crash mid-transaction leaves provenance that\n";
  Printf.printf "  Waldo discards — see test 'client crash orphans are discarded'\n"

(* --- fault injection: overhead when disabled + chaos counters ---------------- *)

(* A short PA-NFS workload shared by the three fault configurations:
   32 creates + provenance-carrying writes through the client, then drain
   the write-behind backlog once faults clear.  Returns elapsed simulated
   nanoseconds. *)
let fault_workload ~registry ~fault =
  let clock = Simdisk.Clock.create () in
  let server =
    Server.create ~registry ~fault ~mode:Server.Pass_enabled ~clock ~machine:9 ~volume:"nfs0" ()
  in
  let net = Proto.net ~fault clock in
  let ctx = Ctx.create ~machine:8 in
  let client = Client.create ~registry ~net ~handler:(Server.handle server) ~ctx ~mount_name:"nfs0" () in
  for i = 0 to 31 do
    match Vfs.create_path (Client.ops client) (Printf.sprintf "/f%02d" i) Vfs.Regular with
    | Error _ -> ()
    | Ok ino -> (
        match Client.file_handle client ino with
        | Error _ -> ()
        | Ok h ->
            let _ : (int, Dpapi.error) result =
              Client.pass_write client h ~off:0
                ~data:(Some (String.make 256 'x'))
                [ Dpapi.entry h [ Record.name (Printf.sprintf "f%02d" i) ] ]
            in
            ())
  done;
  Fault.deactivate fault;
  let _ : (unit, Dpapi.error) result = Client.drain_backlog client in
  Simdisk.Clock.now clock

let fault_bench () =
  section "FAULTS: disabled-path overhead + chaos counters";
  let disabled_ns = fault_workload ~registry:(Telemetry.create ()) ~fault:Fault.none in
  let quiet_ns =
    fault_workload ~registry:(Telemetry.create ())
      ~fault:(Fault.plan ~spec:Fault.quiet ~seed:1 ())
  in
  let quiet_free = disabled_ns = quiet_ns in
  let seed = 11 in
  let chaos_registry = Telemetry.create () in
  let chaos = Fault.plan ~registry:chaos_registry ~spec:Fault.default_chaos ~seed () in
  let chaos_ns = fault_workload ~registry:chaos_registry ~fault:chaos in
  let tv = counter chaos_registry in
  let counter_names =
    [ "fault.injected.total"; "nfs.retries"; "nfs.drc.hits"; "nfs.drc.misses";
      "nfs.backpressure"; "nfs.txns_abandoned"; "lasagna.io_retries" ]
  in
  Printf.printf "  empty fault plan vs no plan: %d ns vs %d ns  %s\n" quiet_ns disabled_ns
    (if quiet_free then "(identical — hooks are free when quiet)" else "MISMATCH");
  Printf.printf "  chaos run (seed %d): %d ns, schedule digest %s\n" seed chaos_ns
    (Fault.digest chaos);
  List.iter (fun n -> Printf.printf "  %-24s %6d\n" n (tv n)) counter_names;
  let json =
    J.Obj
      [
        ("seed", J.Int seed);
        ("disabled_ns", J.Int disabled_ns);
        ("quiet_ns", J.Int quiet_ns);
        ("quiet_equals_disabled", J.Bool quiet_free);
        ("chaos_ns", J.Int chaos_ns);
        ("chaos_digest", J.Str (Fault.digest chaos));
        ("counters", J.Obj (List.map (fun n -> (n, J.Int (tv n))) counter_names));
      ]
  in
  (quiet_free, json)

(* --- tracing: artifact + disabled-overhead gate ------------------------------ *)

let trace_file = "TRACE_events.json"

(* Run the scaled Postmark workload through the PA-NFS configuration with
   tracing off and on.  Gates: the disabled tracer records nothing; the
   enabled run finishes at the same simulated instant (recording charges
   no simulated time); it records spans; every surviving parent resolves;
   every panfs.server span parents onto a panfs.client span; and a second
   identical run exports byte-identical Chrome JSON.  The enabled run's
   flight recorder is written out as the trace artifact CI uploads. *)
let trace_bench ~scale =
  section "TRACE: pvtrace artifact + disabled-overhead gate";
  let w =
    List.find (fun w -> w.Runner.wl_name = "Postmark") (Runner.standard ~scale ())
  in
  let run tracer =
    let sys, server = Runner.nfs_system ~tracer System.Pass in
    w.Runner.run sys;
    ignore (System.drain sys : int);
    ignore (Server.drain server : int);
    Simdisk.Clock.now (System.clock sys)
  in
  let off_ns = run Pvtrace.disabled in
  let tracer = Pvtrace.create () in
  let on_ns = run tracer in
  let chrome = Pvtrace.to_chrome tracer in
  let tracer2 = Pvtrace.create () in
  let _ : int = run tracer2 in
  let deterministic = String.equal chrome (Pvtrace.to_chrome tracer2) in
  let spans = Pvtrace.spans tracer in
  let by_id = Hashtbl.create 4096 in
  List.iter (fun (sp : Pvtrace.span) -> Hashtbl.replace by_id sp.Pvtrace.sp_id sp) spans;
  let parents_resolve =
    List.for_all
      (fun (sp : Pvtrace.span) ->
        sp.Pvtrace.sp_parent = 0 || Hashtbl.mem by_id sp.Pvtrace.sp_parent)
      spans
  in
  let server_parents_ok =
    List.for_all
      (fun (sp : Pvtrace.span) ->
        sp.Pvtrace.sp_layer <> "panfs.server"
        ||
        match Hashtbl.find_opt by_id sp.Pvtrace.sp_parent with
        | Some p -> String.equal p.Pvtrace.sp_layer "panfs.client"
        | None -> false)
      spans
  in
  let zero_overhead = off_ns = on_ns && Pvtrace.total Pvtrace.disabled = 0 in
  let count = Pvtrace.total tracer in
  let ok = zero_overhead && count > 0 && parents_resolve && server_parents_ok && deterministic in
  let oc = open_out trace_file in
  output_string oc chrome;
  output_char oc '\n';
  close_out oc;
  let flag b = if b then "ok" else "FAILED" in
  Printf.printf "  postmark via PA-NFS, tracing off vs on: %d ns vs %d ns  %s\n" off_ns on_ns
    (if off_ns = on_ns then "(identical — recording charges no simulated time)"
     else "MISMATCH");
  Printf.printf "  spans recorded: %d (%d evicted by the ring)\n" count (Pvtrace.dropped tracer);
  Printf.printf "  every surviving parent resolves: %s\n" (flag parents_resolve);
  Printf.printf "  server spans parent onto client RPC spans: %s\n" (flag server_parents_ok);
  Printf.printf "  byte-identical export across identical runs: %s\n" (flag deterministic);
  Printf.printf "  wrote %s\n" trace_file;
  let json =
    J.Obj
      [
        ("workload", J.Str "Postmark");
        ("off_ns", J.Int off_ns);
        ("on_ns", J.Int on_ns);
        ("zero_overhead", J.Bool zero_overhead);
        ("spans", J.Int count);
        ("dropped", J.Int (Pvtrace.dropped tracer));
        ("parents_resolve", J.Bool parents_resolve);
        ("server_parents_on_client", J.Bool server_parents_ok);
        ("deterministic", J.Bool deterministic);
        ("artifact", J.Str trace_file);
      ]
  in
  (ok, json)

(* --- MONITOR: pvmon metrics + attribution gates ------------------------------ *)

let pvmon_file = "PVMON_report.json"

(* Run Postmark over PA-NFS and Mercurial locally with pvmon disabled vs
   enabled; the tracer is on in both runs, so the monitor is the only
   variable.  Gates: [zero_overhead] (both workloads finish at the same
   simulated instant either way, and the disabled singleton never
   scrapes); [conservation] (per-layer self-times sum exactly to the
   traced total — the attribution fold loses nothing); [deterministic]
   (a second identical run exports byte-identical pvmon/v1 JSON and
   OpenMetrics text).  The enabled Postmark run's report is written as
   the artifact CI uploads. *)
let monitor_bench ~scale =
  section "MONITOR: pvmon metrics + SLO health gates";
  let wl name = List.find (fun w -> w.Runner.wl_name = name) (Runner.standard ~scale ()) in
  let postmark = wl "Postmark" and mercurial = wl "Mercurial Activity" in
  let finish monitor sys =
    ignore (System.drain sys : int);
    let now = Simdisk.Clock.now (System.clock sys) in
    if Pvmon.enabled monitor then Pvmon.scrape monitor now;
    now
  in
  let run_nfs monitor =
    let sys, server = Runner.nfs_system ~tracer:(Pvtrace.create ()) ~monitor System.Pass in
    postmark.Runner.run sys;
    ignore (System.drain sys : int);
    ignore (Server.drain server : int);
    finish monitor sys
  in
  let run_local monitor =
    let sys = Runner.local_system ~tracer:(Pvtrace.create ()) ~monitor System.Pass in
    mercurial.Runner.run sys;
    finish monitor sys
  in
  let off_nfs = run_nfs Pvmon.disabled in
  let off_local = run_local Pvmon.disabled in
  let mon = Pvmon.create () in
  let on_nfs = run_nfs mon in
  let report = J.to_string (Pvmon.to_json mon) in
  let exposition = Pvmon.to_openmetrics mon in
  let mon2 = Pvmon.create () in
  let _ : int = run_nfs mon2 in
  let mon_l = Pvmon.create () in
  let on_local = run_local mon_l in
  let deterministic =
    String.equal report (J.to_string (Pvmon.to_json mon2))
    && String.equal exposition (Pvmon.to_openmetrics mon2)
  in
  let zero_overhead =
    off_nfs = on_nfs && off_local = on_local && Pvmon.scrapes Pvmon.disabled = 0
  in
  let self_sum m =
    List.fold_left (fun acc r -> acc + r.Pvmon.lr_self_ns) 0 (Pvmon.attribution m)
  in
  let conservation =
    self_sum mon = Pvmon.traced_total_ns mon
    && self_sum mon_l = Pvmon.traced_total_ns mon_l
    && Pvmon.traced_total_ns mon > 0
  in
  let overhead_pct =
    (float_of_int on_nfs -. float_of_int off_nfs) /. float_of_int (max 1 off_nfs) *. 100.
  in
  let ok =
    zero_overhead && conservation && deterministic && Pvmon.scrapes mon > 0
    && Pvmon.scrapes mon_l > 0
  in
  let oc = open_out pvmon_file in
  output_string oc report;
  output_char oc '\n';
  close_out oc;
  let flag b = if b then "ok" else "FAILED" in
  Printf.printf "  postmark via PA-NFS, pvmon off vs on: %d ns vs %d ns  %s\n" off_nfs on_nfs
    (if off_nfs = on_nfs then "(identical — scrapes charge no simulated time)" else "MISMATCH");
  Printf.printf "  mercurial local,   pvmon off vs on: %d ns vs %d ns  %s\n" off_local on_local
    (if off_local = on_local then "(identical)" else "MISMATCH");
  Printf.printf "  scrapes: %d (postmark), %d (mercurial); alerts: %d; slow ops: %d\n"
    (Pvmon.scrapes mon) (Pvmon.scrapes mon_l)
    (List.length (Pvmon.alerts mon))
    (List.length (Pvmon.slow_ops mon));
  Printf.printf "  attribution conservation (Σ self = traced total): %s\n" (flag conservation);
  List.iter
    (fun (r : Pvmon.layer_row) ->
      Printf.printf "    %-10s self %12d ns  total %12d ns  %7d spans\n" r.Pvmon.lr_layer
        r.Pvmon.lr_self_ns r.Pvmon.lr_total_ns r.Pvmon.lr_spans)
    (Pvmon.attribution mon);
  Printf.printf "  byte-identical JSON + OpenMetrics across identical runs: %s\n"
    (flag deterministic);
  Printf.printf "  wrote %s\n" pvmon_file;
  let json =
    J.Obj
      [
        ("workloads", J.List [ J.Str "Postmark"; J.Str "Mercurial Activity" ]);
        ("off_ns", J.Int off_nfs);
        ("on_ns", J.Int on_nfs);
        ("local_off_ns", J.Int off_local);
        ("local_on_ns", J.Int on_local);
        ("zero_overhead", J.Bool zero_overhead);
        ("overhead_pct", J.Float overhead_pct);
        ("scrapes", J.Int (Pvmon.scrapes mon));
        ("alerts", J.Int (List.length (Pvmon.alerts mon)));
        ("slow_ops", J.Int (List.length (Pvmon.slow_ops mon)));
        ("conservation", J.Bool conservation);
        ("deterministic", J.Bool deterministic);
        ( "attribution",
          J.List
            (List.map
               (fun (r : Pvmon.layer_row) ->
                 J.Obj
                   [
                     ("layer", J.Str r.Pvmon.lr_layer);
                     ("self_ns", J.Int r.Pvmon.lr_self_ns);
                     ("total_ns", J.Int r.Pvmon.lr_total_ns);
                     ("spans", J.Int r.Pvmon.lr_spans);
                   ])
               (Pvmon.attribution mon)) );
        ("artifact", J.Str pvmon_file);
      ]
  in
  (ok, json)

(* --- RECOVERY: bounded restart via checkpointing ----------------------------- *)

(* Grow the ingest history 1x/2x/4x and crash at the end of each run.
   With Every_frames checkpointing, restart replays only the post-
   watermark suffix, so the replayed frame count and the hot database's
   memory stay flat as history grows; without a checkpoint the replay is
   the whole history.  Gates: [bounded] (the checkpointed suffix does not
   grow with history while the full replay does) and [memory_flat] (hot
   bytes at 4x within 1.35x of 1x — expired versions live in the cold
   archive, not in memory). *)
let recovery_bench ~scale =
  section "RECOVERY: bounded restart via checkpointing";
  let okr what = function
    | Ok v -> v
    | Error e -> failwith (what ^ ": " ^ Vfs.errno_to_string e)
  in
  let run ~rounds ~checkpointed =
    let clock = Simdisk.Clock.create () in
    let disk = Simdisk.Disk.create ~clock () in
    let ext3 = Ext3.format disk in
    let ctx = Ctx.create ~machine:1 in
    let lasagna =
      Lasagna.create ~log_max:2048 ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0"
        ~charge:(Simdisk.Clock.advance clock) ()
    in
    (* the control retains every log but never checkpoints: restart is
       the original full-history replay *)
    let policy = if checkpointed then Waldo.Every_frames 64 else Waldo.Manual in
    let waldo =
      Waldo.create ~policy
        ?compact_keep:(if checkpointed then Some 2 else None)
        ~lower:(Ext3.ops ext3) ()
    in
    Waldo.attach waldo lasagna;
    let ep = Lasagna.endpoint lasagna in
    let mk i =
      let h =
        match ep.Dpapi.pass_mkobj ~volume:(Some "vol0") with
        | Ok h -> h
        | Error e -> failwith (Dpapi.error_to_string e)
      in
      disclose_ ep h [ Record.name (Printf.sprintf "rec%d" i) ];
      h
    in
    let files = Array.init 8 mk in
    for round = 1 to rounds do
      Array.iter
        (fun h ->
          disclose_ ep h [ Record.make "PARAMS" (Pvalue.Int round) ];
          let _ : (int, Dpapi.error) result = ep.Dpapi.pass_freeze h in
          ())
        files
    done;
    ignore (Waldo.finalize waldo lasagna : int);
    (* pull the plug and restart *)
    Simdisk.Disk.crash disk;
    Simdisk.Disk.revive disk;
    let ext3 = Ext3.mount disk in
    let before_ns = Simdisk.Clock.now clock in
    let w2, info =
      okr "recover"
        (Waldo.recover ~policy
           ?compact_keep:(if checkpointed then Some 2 else None)
           ~lower:(Ext3.ops ext3) ())
    in
    let recover_ns = Simdisk.Clock.now clock - before_ns in
    (info, recover_ns, Provdb.total_bytes (Waldo.db w2))
  in
  let base = max 6 (int_of_float (48. *. scale)) in
  let histories = [ (1, base); (2, 2 * base); (4, 4 * base) ] in
  let rows =
    List.map
      (fun (mult, rounds) ->
        let info, ckpt_ns, hot_bytes = run ~rounds ~checkpointed:true in
        let full, full_ns, full_bytes = run ~rounds ~checkpointed:false in
        Printf.printf
          "  history %dx (%3d rounds): replay %4d frames / %9d ns (checkpointed)  vs  %4d frames / %9d ns (full)\n"
          mult rounds info.Waldo.ri_frames_replayed ckpt_ns
          full.Waldo.ri_frames_replayed full_ns;
        Printf.printf
          "    gen %d, watermark %d, %d archive segment(s); hot db %d bytes vs %d unchecked\n"
          info.Waldo.ri_gen info.Waldo.ri_watermark info.Waldo.ri_archives hot_bytes
          full_bytes;
        (mult, rounds, info, ckpt_ns, hot_bytes, full, full_ns))
      histories
  in
  let nth i = List.nth rows i in
  let _, _, i1, _, bytes1, _, _ = nth 0 in
  let _, _, _, _, bytes2, _, _ = nth 1 in
  let _, _, i4, ns4, bytes4, f4, full_ns4 = nth 2 in
  let replay_frames_max =
    List.fold_left
      (fun acc (_, _, i, _, _, _, _) -> max acc i.Waldo.ri_frames_replayed)
      0 rows
  in
  (* the checkpointed suffix is bounded by the checkpoint interval (plus a
     log tail), not by history; the full replay grows with history *)
  let bounded =
    i4.Waldo.ri_frames_replayed <= i1.Waldo.ri_frames_replayed + 128
    && 4 * i4.Waldo.ri_frames_replayed <= f4.Waldo.ri_frames_replayed
    && ns4 < full_ns4
    && List.for_all (fun (_, _, i, _, _, _, _) -> i.Waldo.ri_manifest) rows
  in
  (* hot size depends on where in the checkpoint cycle the crash lands
     (the not-yet-covered suffix lives hot), so compare 4x against the
     larger of the two shorter histories, not against 1x alone *)
  let memory_flat =
    float_of_int bytes4 <= 1.35 *. float_of_int (max bytes1 bytes2)
  in
  Printf.printf "  suffix bounded as history grows: %s\n"
    (if bounded then "ok" else "FAILED");
  Printf.printf "  hot-tier memory flat (4x vs shorter = %.2f): %s\n"
    (float_of_int bytes4 /. float_of_int (max 1 (max bytes1 bytes2)))
    (if memory_flat then "ok" else "FAILED");
  let row_json (mult, rounds, (i : Waldo.recovery_info), ns, bytes, (f : Waldo.recovery_info), fns) =
    J.Obj
      [
        ("history", J.Int mult);
        ("rounds", J.Int rounds);
        ("replay_frames", J.Int i.Waldo.ri_frames_replayed);
        ("recover_ns", J.Int ns);
        ("hot_bytes", J.Int bytes);
        ("generation", J.Int i.Waldo.ri_gen);
        ("archives", J.Int i.Waldo.ri_archives);
        ("full_replay_frames", J.Int f.Waldo.ri_frames_replayed);
        ("full_recover_ns", J.Int fns);
      ]
  in
  let json =
    J.Obj
      [
        ("bounded", J.Bool bounded);
        ("memory_flat", J.Bool memory_flat);
        ("replay_frames_max", J.Int replay_frames_max);
        ("histories", J.List (List.map row_json rows));
      ]
  in
  (bounded && memory_flat, json)

(* --- QUERY: planner vs naive evaluator (ISSUE 9) ------------------------------ *)

(* A synthetic provenance graph of [n] file nodes with heap-shaped
   ancestry: node i's input is node (i-1)/2, so every node's transitive
   ancestry cone is its root path (~log2 n nodes).  Each node gets a
   distinct NAME, making the name index maximally selective.  This is the
   shape where the cost-based planner should win by orders of magnitude:
   a selective ancestry query touches O(result) nodes via the name index
   while the naive evaluator enumerates every file binding (O(graph)). *)
let query_graph n =
  let db = Provdb.create () in
  let alloc = Pass_core.Pnode.allocator ~machine:9 in
  let nodes = Array.init n (fun _ -> Pass_core.Pnode.fresh alloc) in
  for i = 0 to n - 1 do
    Provdb.set_file db nodes.(i) ~name:(Printf.sprintf "f%d" i);
    if i > 0 then
      Provdb.add_record db nodes.(i) ~version:0 (Record.input_of nodes.((i - 1) / 2) 0)
  done;
  db

(* wall-clock one run; queries here are large enough that a single
   measurement is stable to well under the 10x margin the gate checks *)
let time_run f =
  let t0 = Sys.time () in
  let result = f () in
  (result, Sys.time () -. t0)

let query_bench ~scale =
  section "QUERY: cost-based planner vs naive evaluator";
  let sizes =
    List.filter_map
      (fun base ->
        let n = int_of_float (float_of_int base *. scale) in
        if n >= 1_000 then Some (max 10_000 n) else None)
      [ 10_000; 32_000; 100_000 ]
  in
  let sizes = List.sort_uniq Int.compare sizes in
  let results =
    List.map
      (fun n ->
        let db = query_graph n in
        (* set equality of row sets, via the rendered (name.version) rows:
           names are distinct here so rendering is injective *)
        let canon rows = List.sort (List.compare String.compare) (Pql.render db rows) in
        let rows_eq a b = List.equal (List.equal String.equal) (canon a) (canon b) in
        (* selective: ancestry of one named file — O(result) via the
           name index, O(graph) naively *)
        let needle = Printf.sprintf "f%d" (n - 1) in
        let selective =
          Printf.sprintf
            {|select A from Provenance.file as F F.input* as A where F.name = "%s"|} needle
        in
        let ast = Pql.parse selective in
        let prepared = Pql.Engine.prepare_ast db ast in
        let planner_rows, planner_s = time_run (fun () -> Pql.Engine.execute prepared) in
        let naive_rows, naive_s = time_run (fun () -> Pql_eval.reference_rows db ast) in
        let rows_equal = rows_eq planner_rows naive_rows in
        let speedup = if planner_s > 0. then naive_s /. planner_s else 1e9 in
        (* full scan: a glob the index cannot serve; both sides O(graph),
           so the planner must not regress it *)
        let full = {|select F from Provenance.file as F where F.name ~ "f1*"|} in
        let full_ast = Pql.parse full in
        let fp = Pql.Engine.prepare_ast db full_ast in
        let full_planner_rows, full_planner_s = time_run (fun () -> Pql.Engine.execute fp) in
        let full_naive_rows, full_naive_s =
          time_run (fun () -> Pql_eval.reference_rows db full_ast)
        in
        let full_equal = rows_eq full_planner_rows full_naive_rows in
        Printf.printf
          "  n=%-7d selective: planner %8.2f ms, naive %8.2f ms  (%6.1fx, %d rows, equal=%b)\n"
          n (planner_s *. 1e3) (naive_s *. 1e3) speedup (List.length planner_rows) rows_equal;
        Printf.printf
          "            full-scan: planner %8.2f ms, naive %8.2f ms  (%d rows, equal=%b)\n"
          (full_planner_s *. 1e3) (full_naive_s *. 1e3)
          (List.length full_planner_rows) full_equal;
        (n, speedup, rows_equal && full_equal,
         J.Obj
           [
             ("nodes", J.Int n);
             ("selective_planner_ms", J.Float (planner_s *. 1e3));
             ("selective_naive_ms", J.Float (naive_s *. 1e3));
             ("selective_speedup", J.Float speedup);
             ("selective_rows", J.Int (List.length planner_rows));
             ("full_planner_ms", J.Float (full_planner_s *. 1e3));
             ("full_naive_ms", J.Float (full_naive_s *. 1e3));
             ("full_rows", J.Int (List.length full_planner_rows));
             ("rows_equal", J.Bool (rows_equal && full_equal));
           ]))
      sizes
  in
  let all_equal = List.for_all (fun (_, _, eq, _) -> eq) results in
  let _, largest_speedup, _, _ = List.nth results (List.length results - 1) in
  let ok = all_equal && largest_speedup >= 10.0 in
  Printf.printf "  gate: rows equal at every size = %b; largest-size speedup %.1fx >= 10x = %b\n"
    all_equal largest_speedup (largest_speedup >= 10.0);
  ( ok,
    J.Obj
      [
        ("ok", J.Bool ok);
        ("selective_speedup", J.Float largest_speedup);
        ("sizes", J.List (List.map (fun (_, _, _, j) -> j) results));
      ] )

(* --- Bechamel microbenchmarks ------------------------------------------------- *)

let microbench () =
  section "MICRO: Bechamel microbenchmarks";
  let open Bechamel in
  (* TABLE2's hot path: the analyzer processing one record *)
  let bench_analyzer =
    let ctx = Ctx.create ~machine:1 in
    let an = Analyzer.create ~ctx ~lower:(null_endpoint ctx) () in
    let ep = Analyzer.endpoint an in
    let f = Dpapi.handle ~volume:"v" (Ctx.fresh ctx) in
    let p = Dpapi.handle (Ctx.fresh ctx) in
    let i = ref 0 in
    Test.make ~name:"table2:analyzer-record"
      (Staged.stage (fun () ->
           incr i;
           disclose_ ep f [ Record.input_of p.pnode (!i land 7) ]))
  in
  (* TABLE3's hot path: Waldo ingesting a record into the database *)
  let bench_provdb =
    let db = Provdb.create () in
    let alloc = Pass_core.Pnode.allocator ~machine:3 in
    let target = Pass_core.Pnode.fresh alloc in
    let i = ref 0 in
    Test.make ~name:"table3:provdb-insert"
      (Staged.stage (fun () ->
           incr i;
           Provdb.add_record db target ~version:0
             (Record.make "PARAMS" (Pvalue.Str (string_of_int (!i land 1023))))))
  in
  (* FIG1's hot path: the paper's PQL query over a challenge run *)
  let bench_pql =
    let sys = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] () in
    let pid = Kernel.fork (System.kernel sys) ~parent:Kernel.init_pid in
    let io = Kepler_run.io_of_system sys ~pid in
    Challenge.prepare_inputs ~input_dir:"/vol0/in" io;
    let _ : Director.result =
      Kepler_run.run sys ~pid (Challenge.workflow ~input_dir:"/vol0/in" ~output_dir:"/vol0/out")
    in
    ignore (System.drain sys : int);
    let db = Option.get (System.waldo_db sys "vol0") in
    let query =
      {|select Ancestor from Provenance.file as Atlas Atlas.input* as Ancestor
        where Atlas.name = "atlas-x.gif"|}
    in
    let prepared = Pql.Engine.prepare db query in
    Test.make ~name:"fig1:pql-ancestry-query"
      (Staged.stage (fun () -> ignore (Pql.Engine.execute prepared : Pql.row list)))
  in
  (* TABLE1's serialization path: the WAP log frame encoder *)
  let bench_wap =
    let alloc = Pass_core.Pnode.allocator ~machine:4 in
    let h = Dpapi.handle ~volume:"v" (Pass_core.Pnode.fresh alloc) in
    let bundle = [ Dpapi.entry h [ Record.name "f"; Record.input_of h.pnode 0 ] ] in
    Test.make ~name:"table1:wap-frame-encode"
      (Staged.stage (fun () ->
           ignore
             (Wap_log.encode_frame (Wap_log.Bundle { txn = None; bundle; data = None })
               : string)))
  in
  let run_one test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
    let raw = Benchmark.all cfg [ instance ] test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        instance raw
    in
    Hashtbl.fold
      (fun name result acc ->
        match Analyze.OLS.estimates result with
        | Some [ est ] ->
            Printf.printf "  %-32s %10.1f ns/op\n" name est;
            (name, Some est) :: acc
        | _ ->
            Printf.printf "  %-32s (no estimate)\n" name;
            (name, None) :: acc)
      results []
  in
  List.concat_map run_one [ bench_analyzer; bench_provdb; bench_pql; bench_wap ]

(* --- machine-readable results ------------------------------------------------ *)

let results_file = "BENCH_results.json"

let write_results ~scale ~registry ~local ~nfs ~space ~faults ~trace ~monitor ~recovery
    ~query ~micro =
  let row_json (r : Runner.row) =
    J.Obj
      [
        ("base_seconds", J.Float r.Runner.base_seconds);
        ("pass_seconds", J.Float r.Runner.pass_seconds);
        ("overhead_pct", J.Float r.Runner.overhead_pct);
      ]
  in
  let space_json (s : Runner.space_row) =
    J.Obj
      [
        ("ext3_mb", J.Float s.Runner.ext3_mb);
        ("prov_mb", J.Float s.Runner.prov_mb);
        ("prov_pct", J.Float s.Runner.prov_pct);
        ("total_mb", J.Float s.Runner.total_mb);
        ("total_pct", J.Float s.Runner.total_pct);
      ]
  in
  let workloads =
    List.map2
      (fun (l, n) (sp : Runner.space_row) ->
        J.Obj
          [
            ("name", J.Str sp.Runner.s_name);
            ("local", row_json l);
            ("nfs", row_json n);
            ("space", space_json sp);
          ])
      (List.combine local nfs) space
  in
  let micro_json =
    J.Obj
      (List.map
         (fun (name, est) ->
           (name, match est with Some ns -> J.Float ns | None -> J.Null))
         (List.sort (fun (a, _) (b, _) -> String.compare a b) micro))
  in
  let doc =
    J.Obj
      [
        ("schema", J.Str "pass-bench/v1");
        ("scale", J.Float scale);
        ("workloads", J.List workloads);
        ("faults", faults);
        ("trace", trace);
        ("monitor", monitor);
        ("recovery", recovery);
        ("query", query);
        ("telemetry", Telemetry.snapshot registry);
        ("micro", micro_json);
      ]
  in
  let oc = open_out results_file in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" results_file

let () =
  Printf.printf "PASSv2 reproduction benchmark harness\n";
  Printf.printf "(simulated time: see DESIGN.md for the substrate cost model)\n";
  fig2 ();
  let scale, registry, local, nfs, space = table2_and_3 () in
  fig1 ();
  section "TABLE1: record-type registry";
  Report.table1 Format.std_formatter;
  ablation_cycles ();
  ablation_dedup ();
  ablation_wap ();
  ablation_nfs_txn ();
  let faults_ok, faults = fault_bench () in
  let trace_ok, trace = trace_bench ~scale in
  let monitor_ok, monitor = monitor_bench ~scale in
  let recovery_ok, recovery = recovery_bench ~scale in
  let query_ok, query = query_bench ~scale in
  let micro = microbench () in
  write_results ~scale ~registry ~local ~nfs ~space ~faults ~trace ~monitor ~recovery ~query
    ~micro;
  Printf.printf "\ndone.\n";
  if not (faults_ok && trace_ok && monitor_ok && recovery_ok && query_ok) then exit 1
