(* pvmon: deterministic monitoring for the PASSv2 stack (DESIGN §16).

   Three consumers share one tick-driven core:

   - Time series.  Each scrape walks every watched telemetry registry
     through [Telemetry.series_snapshot] and appends one point per
     instrument name to a bounded ring: counters become per-second rates
     (delta over simulated elapsed time), gauges record their value,
     histograms record their p99.  Scrapes are driven by the simulated
     clock's advance hook, so a run's scrape timeline is a pure function
     of the workload and fault seed — same seed, byte-identical exports.

   - Cost attribution.  The monitor installs itself as the pvtrace
     completion sink and folds the span stream into per-layer self and
     total time, keyed by the LAYERS.sexp layer names.  The fold is
     exact, not sampled: children complete (and are recorded) before
     their parents, so when a span arrives the sum of its children's
     durations is already known and self = dur - children telescopes to
     [Σ self = Σ root durations] over any complete run (the conservation
     check the bench gates on).  The same fold feeds a collapsed-stack
     flamegraph keyed by the ancestor path pvtrace exposes at record
     time, and a slow-op log that captures that path for any span over
     threshold.

   - SLO rules.  After each scrape a declarative rule set is evaluated
     against the fresh points (counter rates, gauge values, histogram
     p99s).  A rule that breaches for [for_ticks] consecutive scrapes
     fires an alert event; a firing rule that stops breaching resolves.
     Only transitions are logged, so the alert stream is small and — like
     everything here — deterministic.

   Zero-cost when disabled, after pvtrace's own gate: [disabled] is a
   singleton, no clock hook or trace sink is ever installed for it, and
   every entry point is one branch.  Scrape work never advances the
   simulated clock, so even an enabled monitor adds zero simulated time
   (the bench's zero-overhead gate). *)

module J = Telemetry.Json

(* --- bounded rings ---------------------------------------------------------- *)

type 'a ring = {
  rcap : int;
  rdata : 'a option array;
  mutable rhead : int; (* next write slot *)
  mutable rfill : int;
}

let ring_create cap =
  let cap = max 1 cap in
  { rcap = cap; rdata = Array.make cap None; rhead = 0; rfill = 0 }

let ring_push r x =
  r.rdata.(r.rhead) <- Some x;
  r.rhead <- (r.rhead + 1) mod r.rcap;
  if r.rfill < r.rcap then r.rfill <- r.rfill + 1

let ring_list r =
  let start = if r.rfill < r.rcap then 0 else r.rhead in
  List.init r.rfill (fun i ->
      match r.rdata.((start + i) mod r.rcap) with
      | Some x -> x
      | None -> assert false)

(* --- time series ------------------------------------------------------------ *)

type point = { pt_ns : int; pt_value : float }

type series_kind = [ `Counter | `Gauge | `Histogram ]

type tseries = {
  ts_name : string;
  ts_kind : series_kind;
  mutable ts_instances : int;
  mutable ts_raw : float; (* counters: cumulative; histograms: count *)
  mutable ts_cur : float; (* latest point value *)
  mutable ts_summary : Telemetry.summary option; (* histograms only *)
  ts_points : point ring;
}

(* --- SLO rules and alerts --------------------------------------------------- *)

type source =
  | Counter_rate of string (* per-second rate of the counter's delta *)
  | Gauge_value of string
  | Hist_p99 of string
  | Span_p99 of string (* "layer.op": p99 duration of the span stream *)

type rule = {
  rl_name : string;
  rl_source : source;
  rl_below : bool; (* breach when value < threshold instead of > *)
  rl_threshold : float;
  rl_for_ticks : int;
  mutable rl_breached : int; (* consecutive breaching scrapes *)
  mutable rl_firing : bool;
}

let rule ~name ~source ?(below = false) ?(for_ticks = 1) ~threshold () =
  { rl_name = name; rl_source = source; rl_below = below;
    rl_threshold = threshold; rl_for_ticks = max 1 for_ticks;
    rl_breached = 0; rl_firing = false }

(* The stock health rules: DPAPI write latency, WAP backlog, retry rate,
   checkpoint staleness.  Thresholds are set where healthy seed workloads
   sit comfortably inside them; the chaos harness overrides them to
   provoke firing.  There is no DRC-miss rule: every first-time PA-NFS
   request counts as a miss, so it fired on healthy runs, and
   retransmits are already covered by the retry rate.  Rule names follow
   the instrument convention (dotted lowercase, layer-prefixed) — the
   passlint [metric-name] rule enforces this at every [rule ~name:...]
   literal. *)
let default_rules () =
  [
    rule ~name:"dpapi.write_p99" ~source:(Span_p99 "analyzer.pass_write")
      ~threshold:5_000_000. ();
    rule ~name:"wap.backlog_depth" ~source:(Gauge_value "wap.queue_depth")
      ~threshold:64. ();
    rule ~name:"nfs.retry_rate" ~source:(Counter_rate "nfs.retries")
      ~threshold:10. ();
    rule ~name:"waldo.ckpt_staleness"
      ~source:(Gauge_value "waldo.frames_since_ckpt") ~threshold:10_000. ();
  ]

type alert = {
  al_ns : int;
  al_rule : string;
  al_firing : bool; (* true = Firing transition, false = Resolved *)
  al_value : float;
}

type slow_op = {
  so_start_ns : int;
  so_dur_ns : int;
  so_name : string; (* "layer.op" of the slow span *)
  so_path : string list; (* ancestor "layer.op" path, outermost first *)
}

(* --- attribution ------------------------------------------------------------ *)

type layer_row = {
  lr_layer : string;
  lr_self_ns : int;
  lr_total_ns : int;
  lr_spans : int;
}

type lrow = {
  mutable l_self : int;
  mutable l_total : int;
  mutable l_spans : int;
}

(* Span layers (the strings layers pass to [Pvtrace.span ~layer]) mapped
   onto LAYERS.sexp layer names.  test/test_monitor.ml cross-checks every
   target against the parsed LAYERS.sexp so the map cannot drift. *)
let layer_of span_layer =
  match span_layer with
  | "observer" | "analyzer" | "distributor" -> "core"
  | "lasagna" | "wap" -> "lasagna"
  | "waldo" -> "waldo"
  | "simos" -> "os"
  | s
    when Telemetry.name_under ~prefix:"panfs" s
         || Telemetry.name_under ~prefix:"nfs" s ->
      "os"
  | _ -> "top"

(* --- the monitor ------------------------------------------------------------ *)

type t = {
  on : bool;
  interval : int; (* scrape interval, simulated ns *)
  retention : int; (* points kept per series *)
  slow_op_ns : int; (* span-duration threshold for the slow-op log *)
  rules : rule list;
  mutable registries : Telemetry.registry list; (* watch order *)
  span_hists : (string * Telemetry.histogram) list;
      (* "layer.op" -> duration histogram, one per Span_p99 source *)
  span_registry : Telemetry.registry; (* holds [span_hists]; watched once traced *)
  series : (string, tseries) Hashtbl.t;
  mutable next_due : int;
  mutable last_scrape_ns : int;
  mutable scrape_count : int;
  mutable alerts : alert list; (* newest first *)
  slow : slow_op ring;
  (* attribution fold state *)
  childsum : (int, int) Hashtbl.t; (* open span id -> Σ child durations *)
  layers : (string, lrow) Hashtbl.t;
  stacks : (string, int ref) Hashtbl.t; (* collapsed stack -> self ns *)
  mutable root_ns : int; (* Σ root-span durations *)
  mutable span_count : int;
}

let disabled =
  { on = false; interval = 1; retention = 0; slow_op_ns = max_int; rules = [];
    registries = []; span_hists = []; span_registry = Telemetry.create ();
    series = Hashtbl.create 1; next_due = max_int;
    last_scrape_ns = 0; scrape_count = 0; alerts = [];
    slow = ring_create 1; childsum = Hashtbl.create 1;
    layers = Hashtbl.create 1; stacks = Hashtbl.create 1; root_ns = 0;
    span_count = 0 }

let default_interval = 10_000_000 (* 10 simulated ms *)
let default_retention = 512
let default_slow_op = 10_000_000 (* 10 simulated ms *)

let create ?(interval_ns = default_interval) ?(retention = default_retention)
    ?(slow_op_ns = default_slow_op) ?rules () =
  let rules = match rules with Some rs -> rs | None -> default_rules () in
  let interval = max 1 interval_ns in
  let span_registry = Telemetry.create () in
  let span_hists =
    List.fold_left
      (fun acc r ->
        match r.rl_source with
        | Span_p99 name when not (List.mem_assoc name acc) ->
            (name, Telemetry.histogram ~registry:span_registry (name ^ "_ns")) :: acc
        | _ -> acc)
      [] rules
  in
  { on = true; interval; retention = max 1 retention;
    slow_op_ns = max 1 slow_op_ns; rules; registries = []; span_hists;
    span_registry;
    series = Hashtbl.create 64; next_due = interval; last_scrape_ns = 0;
    scrape_count = 0; alerts = []; slow = ring_create 64;
    childsum = Hashtbl.create 256; layers = Hashtbl.create 16;
    stacks = Hashtbl.create 64; root_ns = 0; span_count = 0 }

let enabled t = t.on
let scrapes t = t.scrape_count
let watch t reg = if t.on then t.registries <- t.registries @ [ reg ]

(* --- scraping --------------------------------------------------------------- *)

let get_series t name kind =
  match Hashtbl.find_opt t.series name with
  | Some s -> s
  | None ->
      let s =
        { ts_name = name; ts_kind = kind; ts_instances = 0; ts_raw = 0.;
          ts_cur = 0.; ts_summary = None; ts_points = ring_create t.retention }
      in
      Hashtbl.add t.series name s;
      s

let source_value t src =
  let name =
    match src with
    | Counter_rate name | Gauge_value name | Hist_p99 name -> name
    | Span_p99 name -> name ^ "_ns"
  in
  match Hashtbl.find_opt t.series name with
  | Some s -> Some s.ts_cur
  | None -> None

let eval_rules t ts =
  List.iter
    (fun r ->
      match source_value t r.rl_source with
      | None -> () (* instrument absent from this stack: rule stays idle *)
      | Some v ->
          let breach =
            if r.rl_below then v < r.rl_threshold else v > r.rl_threshold
          in
          if breach then begin
            r.rl_breached <- r.rl_breached + 1;
            if (not r.rl_firing) && r.rl_breached >= r.rl_for_ticks then begin
              r.rl_firing <- true;
              t.alerts <-
                { al_ns = ts; al_rule = r.rl_name; al_firing = true;
                  al_value = v }
                :: t.alerts
            end
          end
          else begin
            r.rl_breached <- 0;
            if r.rl_firing then begin
              r.rl_firing <- false;
              t.alerts <-
                { al_ns = ts; al_rule = r.rl_name; al_firing = false;
                  al_value = v }
                :: t.alerts
            end
          end)
    t.rules

let scrape t ts =
  if t.on then begin
    let elapsed_ns = ts - t.last_scrape_ns in
    List.iter
      (fun row ->
        let open Telemetry in
        let s = get_series t row.se_name row.se_kind in
        s.ts_instances <- row.se_instances;
        (match (s.ts_kind, row.se_kind) with
        | `Counter, `Counter ->
            let rate =
              if elapsed_ns <= 0 then 0.
              else
                (row.se_value -. s.ts_raw)
                /. (float_of_int elapsed_ns /. 1e9)
            in
            s.ts_raw <- row.se_value;
            s.ts_cur <- rate;
            ring_push s.ts_points { pt_ns = ts; pt_value = rate }
        | `Gauge, `Gauge ->
            s.ts_cur <- row.se_value;
            ring_push s.ts_points { pt_ns = ts; pt_value = row.se_value }
        | `Histogram, `Histogram ->
            let p99 =
              match row.se_summary with Some sm -> sm.p99 | None -> 0.
            in
            s.ts_raw <- row.se_value;
            s.ts_cur <- p99;
            s.ts_summary <- row.se_summary;
            ring_push s.ts_points { pt_ns = ts; pt_value = p99 }
        | _ -> () (* a name changed kind mid-run: keep the first kind *));
        ())
      (Telemetry.series_snapshot t.registries);
    eval_rules t ts;
    t.last_scrape_ns <- ts;
    t.scrape_count <- t.scrape_count + 1
  end

(* The clock hook.  One scrape per hook call that crosses a due tick,
   timestamped at the last interval boundary ≤ now, so a large advance
   yields one point (at a grid-aligned timestamp), not a run of identical
   ones.  Deterministic: the scrape timeline is a function of the clock's
   advance sequence only. *)
let tick t now =
  if t.on && now >= t.next_due then begin
    let due = now - (now mod t.interval) in
    scrape t due;
    t.next_due <- due + t.interval
  end

(* --- attribution fold (pvtrace sink) ---------------------------------------- *)

let span_name layer op = layer ^ "." ^ op

let fold_span t tracer sp =
  let dur = sp.Pvtrace.sp_dur_ns in
  let id = sp.Pvtrace.sp_id in
  let name = span_name sp.Pvtrace.sp_layer sp.Pvtrace.sp_op in
  let children =
    match Hashtbl.find_opt t.childsum id with
    | Some c ->
        Hashtbl.remove t.childsum id;
        c
    | None -> 0
  in
  let self = dur - children in
  (if sp.Pvtrace.sp_parent <> 0 then
     let prev =
       match Hashtbl.find_opt t.childsum sp.Pvtrace.sp_parent with
       | Some c -> c
       | None -> 0
     in
     Hashtbl.replace t.childsum sp.Pvtrace.sp_parent (prev + dur)
   else t.root_ns <- t.root_ns + dur);
  let layer = layer_of sp.Pvtrace.sp_layer in
  (* ancestor path: the span's own frame is already popped at record
     time, so the open frames are exactly its ancestors *)
  let frames = Pvtrace.open_frames tracer in
  let row =
    match Hashtbl.find_opt t.layers layer with
    | Some r -> r
    | None ->
        let r = { l_self = 0; l_total = 0; l_spans = 0 } in
        Hashtbl.add t.layers layer r;
        r
  in
  row.l_self <- row.l_self + self;
  (* only the outermost span of a layer on the stack counts toward its
     total, so nested same-layer spans are not counted twice *)
  if not (List.exists (fun (l, _) -> String.equal (layer_of l) layer) frames)
  then row.l_total <- row.l_total + dur;
  row.l_spans <- row.l_spans + 1;
  t.span_count <- t.span_count + 1;
  let path = List.map (fun (l, o) -> span_name l o) frames in
  if self > 0 then begin
    let key = String.concat ";" (path @ [ name ]) in
    match Hashtbl.find_opt t.stacks key with
    | Some r -> r := !r + self
    | None -> Hashtbl.add t.stacks key (ref self)
  end;
  (match List.assoc_opt name t.span_hists with
  | Some h -> Telemetry.observe h (float_of_int dur)
  | None -> ());
  if dur >= t.slow_op_ns then
    ring_push t.slow
      { so_start_ns = sp.Pvtrace.sp_start_ns; so_dur_ns = dur;
        so_name = name;
        so_path = path }

(* The span histograms join the scrape set with the first traced machine:
   without a tracer there are no spans, so a Span_p99 rule stays idle. *)
let attach_tracer t tracer =
  if t.on && Pvtrace.enabled tracer then begin
    if not (List.memq t.span_registry t.registries) then watch t t.span_registry;
    Pvtrace.on_record tracer (fun sp -> fold_span t tracer sp)
  end

(* --- accessors -------------------------------------------------------------- *)

let attribution t =
  let rows =
    Hashtbl.fold
      (fun layer r acc ->
        { lr_layer = layer; lr_self_ns = r.l_self; lr_total_ns = r.l_total;
          lr_spans = r.l_spans }
        :: acc)
      t.layers []
  in
  List.sort
    (fun a b ->
      match Int.compare b.lr_self_ns a.lr_self_ns with
      | 0 -> String.compare a.lr_layer b.lr_layer
      | c -> c)
    rows

let traced_total_ns t = t.root_ns
let traced_spans t = t.span_count
let alerts t = List.rev t.alerts
let slow_ops t = ring_list t.slow

let firing t =
  List.filter_map
    (fun r -> if r.rl_firing then Some r.rl_name else None)
    t.rules

(* --- exporters -------------------------------------------------------------- *)

let sorted_series t =
  let rows = Hashtbl.fold (fun _ s acc -> s :: acc) t.series [] in
  List.sort (fun a b -> String.compare a.ts_name b.ts_name) rows

let kind_str = function
  | `Counter -> "counter"
  | `Gauge -> "gauge"
  | `Histogram -> "histogram"

let to_json t =
  let series_json s =
    J.Obj
      ([
         ("name", J.Str s.ts_name);
         ("kind", J.Str (kind_str s.ts_kind));
         ("instances", J.Int s.ts_instances);
         ("last", J.Float s.ts_cur);
       ]
      @ (match s.ts_kind with
        | `Counter -> [ ("cumulative", J.Float s.ts_raw) ]
        | _ -> [])
      @ [
          ( "points",
            J.List
              (List.map
                 (fun p ->
                   J.Obj [ ("t", J.Int p.pt_ns); ("v", J.Float p.pt_value) ])
                 (ring_list s.ts_points)) );
        ])
  in
  let layer_json r =
    J.Obj
      [
        ("layer", J.Str r.lr_layer);
        ("self_ns", J.Int r.lr_self_ns);
        ("total_ns", J.Int r.lr_total_ns);
        ("spans", J.Int r.lr_spans);
      ]
  in
  let alert_json a =
    J.Obj
      [
        ("t", J.Int a.al_ns);
        ("rule", J.Str a.al_rule);
        ("state", J.Str (if a.al_firing then "firing" else "resolved"));
        ("value", J.Float a.al_value);
      ]
  in
  let slow_json s =
    J.Obj
      [
        ("start_ns", J.Int s.so_start_ns);
        ("dur_ns", J.Int s.so_dur_ns);
        ("name", J.Str s.so_name);
        ("path", J.List (List.map (fun p -> J.Str p) s.so_path));
      ]
  in
  J.Obj
    [
      ("schema", J.Str "pvmon/v1");
      ("interval_ns", J.Int t.interval);
      ("scrapes", J.Int t.scrape_count);
      ("last_scrape_ns", J.Int t.last_scrape_ns);
      ("series", J.List (List.map series_json (sorted_series t)));
      ( "attribution",
        J.Obj
          [
            ("traced_total_ns", J.Int t.root_ns);
            ("spans", J.Int t.span_count);
            ("layers", J.List (List.map layer_json (attribution t)));
          ] );
      ("alerts", J.List (List.map alert_json (alerts t)));
      ("slow_ops", J.List (List.map slow_json (slow_ops t)));
    ]

(* OpenMetrics exposition: dotted instrument names mangled to the
   [a-z0-9_] charset, one TYPE line per family, histograms as quantile
   summaries.  Multi-instance gauges carry an [instances] label so a
   last-registered-wins value is never mistaken for an aggregate
   (telemetry's documented gauge rule).  Deterministic: families sort by
   name and floats go through the same fixed formatter as the JSON. *)
let mangle name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let to_openmetrics t =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  List.iter
    (fun s ->
      let n = mangle s.ts_name in
      match s.ts_kind with
      | `Counter ->
          line "# TYPE %s counter\n" n;
          line "%s_total %s\n" n (fmt_float s.ts_raw)
      | `Gauge ->
          line "# TYPE %s gauge\n" n;
          if s.ts_instances > 1 then
            line "%s{instances=\"%d\"} %s\n" n s.ts_instances
              (fmt_float s.ts_cur)
          else line "%s %s\n" n (fmt_float s.ts_cur)
      | `Histogram -> (
          match s.ts_summary with
          | None -> ()
          | Some sm ->
              line "# TYPE %s summary\n" n;
              line "%s{quantile=\"0.5\"} %s\n" n (fmt_float sm.Telemetry.p50);
              line "%s{quantile=\"0.95\"} %s\n" n (fmt_float sm.Telemetry.p95);
              line "%s{quantile=\"0.99\"} %s\n" n (fmt_float sm.Telemetry.p99);
              line "%s_count %d\n" n sm.Telemetry.count;
              line "%s_sum %s\n" n (fmt_float sm.Telemetry.sum)))
    (sorted_series t);
  line "# TYPE pvmon_scrapes counter\n";
  line "pvmon_scrapes_total %d\n" t.scrape_count;
  line "# TYPE pvmon_alert_firing gauge\n";
  List.iter
    (fun r ->
      line "pvmon_alert_firing{rule=\"%s\"} %d\n" r.rl_name
        (if r.rl_firing then 1 else 0))
    (List.sort (fun a b -> String.compare a.rl_name b.rl_name) t.rules);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* Collapsed-stack flamegraph lines ("a.b;c.d <self_ns>"), sorted, for
   flamegraph.pl / speedscope / inferno. *)
let to_flamegraph t =
  let rows = Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.stacks [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" k v))
    rows;
  Buffer.contents buf

