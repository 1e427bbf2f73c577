(* pvmon tests: scrape mechanics (counter rates, gauge values, histogram
   p99 points, ring retention, tick grid alignment), the exact per-layer
   attribution fold and its conservation invariant, SLO rule transitions
   with for_ticks debouncing, slow-op paths, multi-instance gauge
   tagging, export determinism, and the zero-cost disabled singleton.
   The layer_of targets are cross-checked against the parsed LAYERS.sexp
   so the attribution map cannot drift from the layer contract. *)

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tfloat = Alcotest.float 1e-9
let tstr = Alcotest.string

module Json = Telemetry.Json

let contains s sub =
  let n = String.length sub and l = String.length s in
  let rec go i = i + n <= l && (String.equal (String.sub s i n) sub || go (i + 1)) in
  go 0

let mem path j = Option.get (Json.member path j)

let jint = function Json.Int i -> i | _ -> Alcotest.fail "expected int"

let series_named doc name =
  match mem "series" doc with
  | Json.List rows ->
      List.find
        (fun r ->
          match Json.member "name" r with
          | Some (Json.Str s) -> String.equal s name
          | _ -> false)
        rows
  | _ -> Alcotest.fail "series is not a list"

let points row =
  match mem "points" row with
  | Json.List ps ->
      List.map
        (fun p ->
          let v =
            match mem "v" p with
            | Json.Float f -> f
            | Json.Int i -> float_of_int i
            | _ -> Alcotest.fail "point value"
          in
          (jint (mem "t" p), v))
        ps
  | _ -> Alcotest.fail "points is not a list"

(* --- scrape mechanics -------------------------------------------------------- *)

let test_scrape_rates_and_rings () =
  let reg = Telemetry.create () in
  let c = Telemetry.counter ~registry:reg "t.ops" in
  let g = Telemetry.gauge ~registry:reg "t.depth" in
  let h = Telemetry.histogram ~registry:reg "t.lat" in
  (* retention 2: the ring must keep only the newest two points *)
  let m = Pvmon.create ~interval_ns:1_000 ~retention:2 ~rules:[] () in
  Pvmon.watch m reg;
  Telemetry.add c 100;
  Telemetry.set g 7.;
  Telemetry.observe h 5.0;
  Pvmon.scrape m 1_000;
  Telemetry.add c 50;
  Telemetry.set g 3.;
  Pvmon.scrape m 2_000;
  Pvmon.scrape m 3_000;
  let doc = Pvmon.to_json m in
  check tint "three scrapes" 3 (jint (mem "scrapes" doc));
  (* counter: delta per simulated second.  100 ops in the first 1000 ns
     is 1e8/s; 50 in the next 1000 ns is 5e7/s; 0 in the last. *)
  let ops = series_named doc "t.ops" in
  (match mem "kind" ops with
  | Json.Str "counter" -> ()
  | _ -> Alcotest.fail "t.ops kind");
  check Alcotest.(list (pair int (float 1e-6)))
    "ring keeps the newest two rate points"
    [ (2_000, 5e7); (3_000, 0.) ]
    (points ops);
  (match mem "cumulative" ops with
  | Json.Float f -> check tfloat "cumulative tracks the raw counter" 150. f
  | _ -> Alcotest.fail "cumulative");
  (* gauge: raw values, same ring bound *)
  check Alcotest.(list (pair int (float 1e-9)))
    "gauge points are values"
    [ (2_000, 3.); (3_000, 3.) ]
    (points (series_named doc "t.depth"));
  (* histogram: p99 of a single observation is that observation *)
  (match points (series_named doc "t.lat") with
  | (_, v) :: _ -> check tfloat "histogram point is the p99" 5.0 v
  | [] -> Alcotest.fail "no histogram points")

let test_tick_grid () =
  let reg = Telemetry.create () in
  Telemetry.set (Telemetry.gauge ~registry:reg "t.g") 1.;
  let m = Pvmon.create ~interval_ns:1_000 ~rules:[] () in
  Pvmon.watch m reg;
  (* a large advance crossing several boundaries yields ONE scrape,
     timestamped at the last boundary <= now *)
  Pvmon.tick m 2_500;
  check tint "one scrape for a multi-interval advance" 1 (Pvmon.scrapes m);
  check tint "timestamped at the boundary" 2_000
    (jint (mem "last_scrape_ns" (Pvmon.to_json m)));
  (* short of the next boundary: nothing *)
  Pvmon.tick m 2_900;
  check tint "no scrape before the next boundary" 1 (Pvmon.scrapes m);
  Pvmon.tick m 3_000;
  check tint "scrape on the boundary" 2 (Pvmon.scrapes m);
  check tint "grid-aligned timestamp" 3_000
    (jint (mem "last_scrape_ns" (Pvmon.to_json m)))

(* --- SLO rules ---------------------------------------------------------------- *)

let test_alert_transitions () =
  let reg = Telemetry.create () in
  let g = Telemetry.gauge ~registry:reg "t.backlog" in
  let rules =
    [
      Pvmon.rule ~name:"t.backlog_depth" ~source:(Pvmon.Gauge_value "t.backlog")
        ~for_ticks:2 ~threshold:5. ();
      (* a rule on an absent instrument must stay idle, not breach *)
      Pvmon.rule ~name:"t.ghost_rate" ~source:(Pvmon.Counter_rate "t.ghost")
        ~threshold:0. ();
    ]
  in
  let m = Pvmon.create ~interval_ns:1_000 ~rules () in
  Pvmon.watch m reg;
  Telemetry.set g 10.;
  Pvmon.scrape m 1_000;
  check tint "for_ticks=2 debounces the first breach" 0
    (List.length (Pvmon.alerts m));
  Pvmon.scrape m 2_000;
  (match Pvmon.alerts m with
  | [ a ] ->
      check tstr "firing rule" "t.backlog_depth" a.Pvmon.al_rule;
      check tbool "firing state" true a.Pvmon.al_firing;
      check tint "firing timestamp" 2_000 a.Pvmon.al_ns;
      check tfloat "breach value captured" 10. a.Pvmon.al_value
  | l -> Alcotest.failf "expected one alert, got %d" (List.length l));
  check Alcotest.(list string) "firing list while breached"
    [ "t.backlog_depth" ] (Pvmon.firing m);
  (* still breached: transitions only, no repeat alert *)
  Pvmon.scrape m 3_000;
  check tint "no repeat while still firing" 1 (List.length (Pvmon.alerts m));
  (* clear: one resolved transition, firing list empties *)
  Telemetry.set g 0.;
  Pvmon.scrape m 4_000;
  (match Pvmon.alerts m with
  | [ _; r ] ->
      check tbool "resolved state" false r.Pvmon.al_firing;
      check tint "resolved timestamp" 4_000 r.Pvmon.al_ns
  | l -> Alcotest.failf "expected two alerts, got %d" (List.length l));
  check Alcotest.(list string) "nothing firing after resolve" []
    (Pvmon.firing m);
  (* a single clear scrape resets the for_ticks streak *)
  Telemetry.set g 10.;
  Pvmon.scrape m 5_000;
  check tint "streak restarts after a clear scrape" 2
    (List.length (Pvmon.alerts m))

let test_below_rule () =
  let reg = Telemetry.create () in
  let g = Telemetry.gauge ~registry:reg "t.level" in
  let rules =
    [
      Pvmon.rule ~name:"t.level_low" ~source:(Pvmon.Gauge_value "t.level")
        ~below:true ~threshold:2. ();
    ]
  in
  let m = Pvmon.create ~interval_ns:1_000 ~rules () in
  Pvmon.watch m reg;
  Telemetry.set g 5.;
  Pvmon.scrape m 1_000;
  check tint "above a below-threshold is healthy" 0
    (List.length (Pvmon.alerts m));
  Telemetry.set g 1.;
  Pvmon.scrape m 2_000;
  check Alcotest.(list string) "below fires" [ "t.level_low" ] (Pvmon.firing m)

(* A span source reads a histogram the monitor fills from its own trace
   sink: idle (no series, no alert) until a tracer is attached, then the
   p99 of the named spans' durations. *)
let test_span_source () =
  let rules =
    [ Pvmon.rule ~name:"t.op_p99" ~source:(Pvmon.Span_p99 "t.op") ~threshold:100. () ]
  in
  let m = Pvmon.create ~interval_ns:1_000 ~rules () in
  Pvmon.scrape m 1_000;
  check tbool "no series without a tracer" false
    (contains (Json.to_string (Pvmon.to_json m)) "t.op_ns");
  let clock = ref 0 in
  let tracer = Pvtrace.create ~now:(fun () -> !clock) () in
  Pvmon.attach_tracer m tracer;
  Pvtrace.span tracer ~layer:"t" ~op:"op" (fun () -> clock := !clock + 500);
  Pvtrace.span tracer ~layer:"t" ~op:"other" (fun () -> clock := !clock + 9_000);
  Pvmon.scrape m 2_000;
  check Alcotest.(list (pair int (float 1e-9)))
    "series t.op_ns carries the p99 of t.op spans only"
    [ (2_000, 500.) ]
    (points (series_named (Pvmon.to_json m) "t.op_ns"));
  check Alcotest.(list string) "rule fires on the span p99" [ "t.op_p99" ] (Pvmon.firing m)

(* --- attribution fold --------------------------------------------------------- *)

(* A hand-built span tree on a manual clock:
     simos.syscall (root, 1000 ns total)
       analyzer.process (600 ns total)
         lasagna.append (250 ns)
   Self times: lasagna.append 250, analyzer.process 350, simos 400. *)
let test_attribution_fold () =
  let clock = ref 0 in
  let tracer = Pvtrace.create ~now:(fun () -> !clock) () in
  let m = Pvmon.create ~interval_ns:1_000 ~slow_op_ns:600 ~rules:[] () in
  Pvmon.attach_tracer m tracer;
  Pvtrace.span tracer ~layer:"simos" ~op:"syscall_write" (fun () ->
      clock := !clock + 200;
      Pvtrace.span tracer ~layer:"analyzer" ~op:"process" (fun () ->
          clock := !clock + 150;
          Pvtrace.span tracer ~layer:"lasagna" ~op:"append" (fun () ->
              clock := !clock + 250);
          clock := !clock + 200);
      clock := !clock + 200);
  check tint "three spans folded" 3 (Pvmon.traced_spans m);
  check tint "root duration is the traced total" 1_000
    (Pvmon.traced_total_ns m);
  let row layer =
    List.find (fun r -> String.equal r.Pvmon.lr_layer layer) (Pvmon.attribution m)
  in
  check tint "os self = root minus children" 400 (row "os").Pvmon.lr_self_ns;
  check tint "core self" 350 (row "core").Pvmon.lr_self_ns;
  check tint "lasagna self = leaf duration" 250 (row "lasagna").Pvmon.lr_self_ns;
  check tint "lasagna total = leaf duration" 250 (row "lasagna").Pvmon.lr_total_ns;
  check tint "core total includes the leaf" 600 (row "core").Pvmon.lr_total_ns;
  (* conservation: Σ self over layers = Σ root durations, exactly *)
  let self_sum =
    List.fold_left (fun a r -> a + r.Pvmon.lr_self_ns) 0 (Pvmon.attribution m)
  in
  check tint "conservation" (Pvmon.traced_total_ns m) self_sum;
  (* the flamegraph keys each self-time by its ancestor path *)
  let fg = Pvmon.to_flamegraph m in
  check tbool "leaf stack line" true
    (contains fg "simos.syscall_write;analyzer.process;lasagna.append 250");
  (* slow-op log: both the 1000 ns root and the 600 ns middle span are
     over the 600 ns threshold, each with its ancestor path *)
  match Pvmon.slow_ops m with
  | [ mid; root ] ->
      check tstr "slow middle span" "analyzer.process" mid.Pvmon.so_name;
      check Alcotest.(list string) "middle span's path is the root"
        [ "simos.syscall_write" ] mid.Pvmon.so_path;
      check tstr "slow root span" "simos.syscall_write" root.Pvmon.so_name;
      check Alcotest.(list string) "root has an empty path" [] root.Pvmon.so_path;
      check tint "durations captured" 1_000 root.Pvmon.so_dur_ns
  | l -> Alcotest.failf "expected two slow ops, got %d" (List.length l)

(* Every layer_of target must be a layer LAYERS.sexp declares, so the
   attribution map cannot drift from the contract passarch enforces.  The
   map itself is private to pvmon; its observable range is pinned here by
   folding spans tagged with every span-layer string the stack uses. *)
let test_layer_map_matches_layers_sexp () =
  let rec up dir n =
    let cand = Filename.concat dir "LAYERS.sexp" in
    if Sys.file_exists cand then cand
    else if n = 0 then Alcotest.fail "LAYERS.sexp not found"
    else up (Filename.dirname dir) (n - 1)
  in
  let path = up (Sys.getcwd ()) 8 in
  let ic = open_in path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  (* declared layer names: every "(name X)" occurrence *)
  let declared = ref [] in
  let needle = "(name " in
  let nl = String.length needle in
  String.iteri
    (fun i _ ->
      if i + nl <= String.length src && String.equal (String.sub src i nl) needle
      then begin
        let j = ref (i + nl) in
        while !j < String.length src && src.[!j] <> ')' do incr j done;
        declared := String.sub src (i + nl) (!j - i - nl) :: !declared
      end)
    src;
  let declared = !declared in
  check tbool "parsed some layers" true (List.length declared >= 5);
  (* fold one span per span-layer string the stack emits; the resulting
     attribution rows must all name declared layers *)
  let clock = ref 0 in
  let tracer = Pvtrace.create ~now:(fun () -> !clock) () in
  let m = Pvmon.create ~rules:[] () in
  Pvmon.attach_tracer m tracer;
  List.iter
    (fun layer ->
      Pvtrace.span tracer ~layer ~op:"probe" (fun () -> clock := !clock + 10))
    [ "observer"; "analyzer"; "distributor"; "lasagna"; "wap"; "waldo";
      "simos"; "panfs.client"; "panfs.server"; "nfs.proto"; "unknown_layer" ];
  List.iter
    (fun r ->
      check tbool
        (Printf.sprintf "attributed layer %S is declared in LAYERS.sexp"
           r.Pvmon.lr_layer)
        true
        (List.mem r.Pvmon.lr_layer declared))
    (Pvmon.attribution m)

(* --- multi-instance gauges ---------------------------------------------------- *)

let test_multi_instance_gauge_tagging () =
  let reg = Telemetry.create () in
  let g1 = Telemetry.gauge ~registry:reg "t.mg" in
  let g2 = Telemetry.gauge ~registry:reg "t.mg" in
  Telemetry.set g1 10.;
  Telemetry.set g2 3.;
  let m = Pvmon.create ~rules:[] () in
  Pvmon.watch m reg;
  Pvmon.scrape m 1_000;
  let row = series_named (Pvmon.to_json m) "t.mg" in
  check tint "instance count in JSON" 2 (jint (mem "instances" row));
  (match mem "last" row with
  | Json.Float f -> check tfloat "last-registered value scraped" 3. f
  | _ -> Alcotest.fail "last");
  (* the OpenMetrics exposition tags the gauge so a last-registered-wins
     value can never be mistaken for an aggregate *)
  check tbool "instances label in exposition" true
    (contains (Pvmon.to_openmetrics m) "t_mg{instances=\"2\"} 3.0")

(* --- exports ------------------------------------------------------------------ *)

let test_openmetrics_shape () =
  let reg = Telemetry.create () in
  Telemetry.add (Telemetry.counter ~registry:reg "t.ops") 5;
  Telemetry.observe (Telemetry.histogram ~registry:reg "t.lat") 4.0;
  let m = Pvmon.create ~rules:(Pvmon.default_rules ()) () in
  Pvmon.watch m reg;
  Pvmon.scrape m 1_000;
  let om = Pvmon.to_openmetrics m in
  List.iter
    (fun needle ->
      check tbool (Printf.sprintf "exposition contains %S" needle) true
        (contains om needle))
    [
      "# TYPE t_ops counter"; "t_ops_total 5.0";
      "# TYPE t_lat summary"; "t_lat{quantile=\"0.99\"} 4.0";
      "t_lat_count 1"; "t_lat_sum 4.0";
      "pvmon_scrapes_total 1";
      "pvmon_alert_firing{rule=\"dpapi.write_p99\"} 0";
    ];
  check tbool "terminated by # EOF" true
    (let tail = "# EOF\n" in
     String.length om >= String.length tail
     && String.equal (String.sub om (String.length om - String.length tail)
                        (String.length tail)) tail)

(* --- end to end + determinism ------------------------------------------------- *)

let run_workload () =
  let registry = Telemetry.create () in
  let tracer = Pvtrace.create () in
  let monitor = Pvmon.create () in
  let sys = Runner.local_system ~registry ~tracer ~monitor System.Pass in
  Kepler_wl.run sys ~parent:Kernel.init_pid;
  ignore (System.drain sys : int);
  Pvmon.scrape monitor (Simdisk.Clock.now (System.clock sys));
  monitor

let test_end_to_end_conservation () =
  let m = run_workload () in
  check tbool "scrapes happened" true (Pvmon.scrapes m > 0);
  check tbool "spans folded" true (Pvmon.traced_spans m > 0);
  check tbool "traced time accumulated" true (Pvmon.traced_total_ns m > 0);
  let self_sum =
    List.fold_left (fun a r -> a + r.Pvmon.lr_self_ns) 0 (Pvmon.attribution m)
  in
  check tint "conservation over a full workload" (Pvmon.traced_total_ns m)
    self_sum;
  (* the pipeline instruments made it into the scraped series *)
  let doc = Pvmon.to_json m in
  let _ : Json.t = series_named doc "wap.frames_written" in
  let _ : Json.t = series_named doc "analyzer.pass_write_ns" in
  ()

let alert_triples m =
  List.map (fun a -> (a.Pvmon.al_ns, a.Pvmon.al_rule, a.Pvmon.al_firing, a.Pvmon.al_value))
    (Pvmon.alerts m)

let talerts = Alcotest.(list (pair (pair int string) (pair bool (float 0.))))
let flat l = List.map (fun (t, r, f, v) -> ((t, r), (f, v))) l

let monitored_local w =
  let tracer = Pvtrace.create () in
  let monitor = Pvmon.create () in
  let sys = Runner.local_system ~tracer ~monitor System.Pass in
  w.Runner.run sys;
  ignore (System.drain sys : int);
  Pvmon.scrape monitor (Simdisk.Clock.now (System.clock sys));
  monitor

let workload name =
  List.find (fun w -> String.equal w.Runner.wl_name name) (Runner.standard ())

(* The stock DPAPI latency rule reads the analyzer.pass_write span
   stream.  The pinned transitions are those of a separate timer that
   once wrapped the very same call on the same simulated clock; the span
   brackets that call exactly, so the alert stream must not move by a
   nanosecond. *)
let test_span_p99_transitions_pinned () =
  check talerts "pa-kepler: one firing transition"
    (flat [ (130_000_000, "dpapi.write_p99", true, 6148060.) ])
    (flat (alert_triples (run_workload ())));
  check talerts "blast: fires, then resolves"
    (flat
       [ (20_000_000, "dpapi.write_p99", true, 6148060.);
         (30_000_000, "dpapi.write_p99", false, 819276.) ])
    (flat (alert_triples (monitored_local (workload "Blast"))))

(* Every first-time PA-NFS request is a duplicate-request-cache "miss",
   so a miss-rate rule fires on any busy healthy mount.  The stock rules
   must stay quiet on fault-free NFS runs. *)
let test_no_nfs_alerts_on_healthy_runs () =
  List.iter
    (fun name ->
      let tracer = Pvtrace.create () in
      let monitor = Pvmon.create ~rules:(Pvmon.default_rules ()) () in
      let sys, server = Runner.nfs_system ~tracer ~monitor System.Pass in
      (workload name).Runner.run sys;
      ignore (System.drain sys : int);
      ignore (Server.drain server : int);
      Pvmon.scrape monitor (Simdisk.Clock.now (System.clock sys));
      let nfs_alerts =
        List.filter
          (fun a -> Telemetry.name_under ~prefix:"nfs" a.Pvmon.al_rule)
          (Pvmon.alerts monitor)
      in
      check Alcotest.(list string)
        (name ^ " over NFS: no nfs.* alert")
        []
        (List.map (fun a -> a.Pvmon.al_rule) nfs_alerts))
    [ "Blast"; "PA-Kepler" ]

let test_determinism () =
  let a = run_workload () and b = run_workload () in
  check tbool "byte-identical JSON" true
    (String.equal (Json.to_string (Pvmon.to_json a))
       (Json.to_string (Pvmon.to_json b)));
  check tbool "byte-identical OpenMetrics" true
    (String.equal (Pvmon.to_openmetrics a) (Pvmon.to_openmetrics b));
  check tbool "byte-identical flamegraph" true
    (String.equal (Pvmon.to_flamegraph a) (Pvmon.to_flamegraph b));
  check tbool "byte-identical Chrome counters" true
    (String.equal (Pvmon.to_chrome_counters a) (Pvmon.to_chrome_counters b))

(* --- disabled singleton ------------------------------------------------------- *)

let test_disabled_is_inert () =
  let m = Pvmon.disabled in
  check tbool "disabled" false (Pvmon.enabled m);
  let reg = Telemetry.create () in
  Telemetry.add (Telemetry.counter ~registry:reg "t.c") 1;
  Pvmon.watch m reg;
  Pvmon.tick m 1_000_000_000;
  Pvmon.scrape m 1_000_000_000;
  check tint "never scrapes" 0 (Pvmon.scrapes m);
  check tint "never folds" 0 (Pvmon.traced_spans m);
  check tint "no alerts" 0 (List.length (Pvmon.alerts m));
  (* a system built around the disabled monitor stays disabled *)
  let sys = Runner.local_system System.Pass in
  Kepler_wl.run sys ~parent:Kernel.init_pid;
  ignore (System.drain sys : int);
  check tint "default system monitor took no samples" 0 (Pvmon.scrapes m)

let suite =
  [
    Alcotest.test_case "scrape rates and rings" `Quick test_scrape_rates_and_rings;
    Alcotest.test_case "tick grid alignment" `Quick test_tick_grid;
    Alcotest.test_case "alert transitions" `Quick test_alert_transitions;
    Alcotest.test_case "below-threshold rules" `Quick test_below_rule;
    Alcotest.test_case "span p99 source" `Quick test_span_source;
    Alcotest.test_case "attribution fold" `Quick test_attribution_fold;
    Alcotest.test_case "layer map matches LAYERS.sexp" `Quick
      test_layer_map_matches_layers_sexp;
    Alcotest.test_case "multi-instance gauge tagging" `Quick
      test_multi_instance_gauge_tagging;
    Alcotest.test_case "openmetrics shape" `Quick test_openmetrics_shape;
    Alcotest.test_case "end-to-end conservation" `Quick
      test_end_to_end_conservation;
    Alcotest.test_case "span p99 transitions pinned" `Quick
      test_span_p99_transitions_pinned;
    Alcotest.test_case "no nfs alerts on healthy nfs runs" `Quick
      test_no_nfs_alerts_on_healthy_runs;
    Alcotest.test_case "export determinism" `Quick test_determinism;
    Alcotest.test_case "disabled singleton is inert" `Quick
      test_disabled_is_inert;
  ]
