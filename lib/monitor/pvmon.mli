(** pvmon: deterministic time-series metrics, per-layer cost attribution
    and SLO health monitoring over the PASSv2 stack (DESIGN §16).

    A monitor scrapes every watched telemetry registry at a fixed
    simulated-time interval (driven by {!Clock.on_advance} via
    {!System.create}) into bounded ring time series — counters as
    per-second rates, gauges as values, histograms as p99 points — and
    folds the pvtrace span stream into an exact per-layer self/total
    cost profile keyed by the LAYERS.sexp layer names.  A declarative
    SLO rule set is evaluated per scrape; breach/clear transitions are
    logged as alert events and any span over the slow-op threshold is
    captured with its full ancestor path.

    Everything is deterministic: scrape timestamps come from the
    simulated clock, rules run in declaration order, exports sort by
    name.  Same workload + same fault seed ⇒ byte-identical artifacts.
    {!disabled} makes every entry point a single branch, and scrapes
    never advance the simulated clock, so monitoring cannot perturb a
    run. *)

type t

val disabled : t
(** The inactive monitor: every operation is a no-op costing one branch.
    The default everywhere a [?monitor] is accepted. *)

(** {1 SLO rules} *)

type source =
  | Counter_rate of string
      (** per-second rate of the named counter's delta between scrapes *)
  | Gauge_value of string  (** the named gauge's scraped value *)
  | Hist_p99 of string  (** the named histogram's p99 at scrape time *)
  | Span_p99 of string
      (** p99 duration of the spans named ["layer.op"] (e.g.
          ["analyzer.pass_write"]), in simulated ns.  The monitor keeps one
          histogram per such name, fed from its pvtrace sink and exported
          as series ["layer.op_ns"].  Span sources stay idle under a
          disabled tracer: no spans are recorded, so the series never
          appears. *)

type rule

val rule :
  name:string ->
  source:source ->
  ?below:bool ->
  ?for_ticks:int ->
  threshold:float ->
  unit ->
  rule
(** A health rule: breach when the source value is over [threshold]
    (under, with [~below:true]) — the alert fires after [for_ticks]
    consecutive breaching scrapes (default 1) and resolves on the first
    clear scrape.  [name] must follow the instrument naming convention
    (dotted lowercase, layer-prefixed); passlint's [metric-name] rule
    enforces this on every literal. *)

val default_rules : unit -> rule list
(** The stock rule set: DPAPI write p99 latency (the [analyzer.pass_write]
    span), WAP backlog depth, PA-NFS retry rate, Waldo checkpoint
    staleness.  Fresh mutable state per call. *)

(** {1 Construction and wiring} *)

val create :
  ?interval_ns:int ->
  ?retention:int ->
  ?slow_op_ns:int ->
  ?rules:rule list ->
  unit ->
  t
(** An enabled monitor.  [interval_ns] is the scrape interval in
    simulated ns (default 10ms); [retention] the points kept per series
    (default 512); [slow_op_ns] the slow-op log threshold (default
    10ms); [rules] defaults to {!default_rules}. *)

val enabled : t -> bool

val watch : t -> Telemetry.registry -> unit
(** Add a registry to the scrape set.  A scrape reads the set through
    {!Telemetry.series_snapshot}: counters sum, the later registration's
    gauge wins (instance counts still sum, so multi-instance gauges stay
    tagged), histogram reservoirs merge. *)

val attach_tracer : t -> Pvtrace.t -> unit
(** Install the monitor as [tracer]'s completion sink
    ({!Pvtrace.on_record}): every recorded span feeds the attribution
    fold, the flamegraph accumulator, the slow-op log and the
    {!Span_p99} histograms, which join the scrape set here.  No-op when
    either side is disabled. *)

val tick : t -> int -> unit
(** The clock hook ({!Clock.on_advance} target, wired by
    {!System.create}): scrape once when [now_ns] crosses the next
    interval boundary, timestamped at that boundary. *)

val scrape : t -> int -> unit
(** Force a scrape timestamped [now_ns], outside the tick grid — drivers
    use it for a final end-of-run sample. *)

val scrapes : t -> int
(** Scrapes taken so far. *)

(** {1 Results} *)

type alert = {
  al_ns : int;  (** scrape timestamp of the transition *)
  al_rule : string;
  al_firing : bool;  (** [true] = firing transition, [false] = resolved *)
  al_value : float;  (** source value at the transition *)
}

type slow_op = {
  so_start_ns : int;
  so_dur_ns : int;
  so_name : string;  (** "layer.op" of the slow span *)
  so_path : string list;  (** ancestor "layer.op" path, outermost first *)
}

type layer_row = {
  lr_layer : string;  (** a LAYERS.sexp layer name *)
  lr_self_ns : int;  (** time in this layer excluding child spans *)
  lr_total_ns : int;
      (** time in this layer's outermost spans, children included: a span
          nested under an open span of the same layer is not counted
          again, so the total never exceeds {!traced_total_ns} *)
  lr_spans : int;
}

val attribution : t -> layer_row list
(** Per-layer profile, largest self-time first.  The fold is exact:
    summed [lr_self_ns] across layers equals {!traced_total_ns}
    (conservation — the bench gates on it). *)

val traced_total_ns : t -> int
(** Σ root-span durations: the total traced simulated time. *)

val traced_spans : t -> int
val alerts : t -> alert list  (** transition events, oldest first *)

val slow_ops : t -> slow_op list
val firing : t -> string list  (** names of currently-firing rules *)

(** {1 Exports} *)

val to_json : t -> Telemetry.Json.t
(** The full monitor state (schema "pvmon/v1"): series with retained
    points, attribution, alerts, slow ops.  Byte-deterministic under a
    pinned seed. *)

val to_openmetrics : t -> string
(** OpenMetrics text exposition: counters as [_total], multi-instance
    gauges labelled [{instances="N"}], histograms as quantile summaries,
    plus pvmon's own scrape counter and per-rule firing gauges;
    terminated by [# EOF].  Prometheus/Grafana-compatible. *)

val to_flamegraph : t -> string
(** Collapsed-stack lines ("layer.op;layer.op <self_ns>"), sorted — feed
    to flamegraph.pl, inferno or speedscope. *)
