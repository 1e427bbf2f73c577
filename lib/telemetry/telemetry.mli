(** Unified telemetry for the PASSv2 pipeline.

    Every pipeline layer (observer, analyzer, distributor, Lasagna, Waldo,
    PA-NFS client/server, simdisk) creates named instruments — counters,
    gauges, histograms — against a {!registry}.  A registry snapshot is the
    machine-readable form of the paper's Tables 2–3 accounting: records
    in/out, duplicates dropped, WAP bytes, RPC latencies, disk seeks.

    Instruments are owned by the layer instance that created them; the
    registry aggregates same-named instruments at snapshot time, the way a
    scrape aggregates per-process metrics.  There is no process-global
    registry: a caller that wants to read a layer's instruments passes
    that layer its own registry. *)

type registry
type counter
type gauge
type histogram

val create : unit -> registry
(** A fresh, empty registry. *)

(** {1 Instrument creation}

    Creating an instrument registers it under [name] in [registry].
    Several instruments may share a name (one per layer instance);
    snapshots aggregate them.  Without [registry] the instrument is
    registered nowhere: it still counts ({!value}, {!summary}) but no
    snapshot sees it. *)

val counter : ?registry:registry -> string -> counter
val gauge : ?registry:registry -> string -> gauge
val histogram : ?registry:registry -> string -> histogram

(** {1 Counters} *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {1 Gauges} *)

val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

val observe : histogram -> float -> unit

type summary = {
  count : int;
  sum : float;
  min : float; (* 0. when empty *)
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summary : histogram -> summary
(** Count, sum, min and max are exact; percentiles come from a bounded
    deterministic sample reservoir (no randomness — runs are
    reproducible).

    Accuracy bound: the reservoir holds up to 2048 samples.  While the
    observation count is ≤ 2048 every observation is retained and the
    percentiles are exact sample quantiles.  Beyond that the reservoir is
    a 1-in-[stride] systematic sample of the observation stream (the
    stride doubles on each compaction), and a reported percentile [p] is
    the exact quantile of that subsample.  The pinned-seed property test
    in [test/test_telemetry.ml] asserts a normalized rank error of at
    most 0.05 against the exact percentile: the reported value for
    quantile [p] sits between the exact quantiles at [p - 0.05] and
    [p + 0.05].  That bound is part of this interface — tighten the test
    if the sketch changes. *)

val with_span : histogram -> now:(unit -> int) -> (unit -> 'a) -> 'a
(** [with_span h ~now f] runs [f] and observes [now () - now ()] elapsed
    around it (simulated nanoseconds) into [h], whether [f] returns or
    raises. *)

(** {1 Snapshots} *)

module Json : sig
  (** A minimal JSON tree: enough to encode snapshots and to round-trip
      them in tests without external dependencies. *)

  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  val to_string : t -> string
  val of_string : string -> t
  (** Raises {!Parse_error} on malformed input (including trailing garbage
      after a complete value).  Decodes [\uXXXX] escapes to UTF-8,
      combining surrogate pairs; a lone surrogate is malformed. *)

  val member : string -> t -> t option
  (** Field lookup on [Obj]; [None] otherwise. *)

  val escape : string -> string
  (** JSON string-escape [s] (quotes, backslashes, control characters);
      does not add surrounding quotes. *)
end

val name_under : prefix:string -> string -> bool
(** [name_under ~prefix name] is true when [name] sits under the dotted
    [prefix]: equal to it, or extending it at a ['.'] boundary ("panfs"
    matches "panfs.client.rpcs" but not "panfsx.rpcs").  The empty prefix
    matches everything.  Shared by [passctl stats --filter] and the
    pvtrace exporters. *)

val validate_prefix : string -> (string, string) result
(** Validate a user-supplied filter prefix before it reaches
    {!name_under}: the empty string (for which [name_under] matches
    everything) and prefixes with empty dotted segments ("", ".a",
    "a..b", "a.") are rejected with a message; anything else passes
    through unchanged.  CLI front-ends use this so a typo'd [--filter]
    is a usage error, not a silent match-all. *)

val snapshot : ?filter:string -> registry -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {name: summary}}],
    keys sorted, same-named instruments aggregated (counters summed, gauges
    last-registered-wins, histograms merged).  [filter] keeps only
    instruments whose name is {!name_under} the prefix. *)

val to_json : ?filter:string -> registry -> string

val counter_value : registry -> string -> int option
(** Aggregated value of every counter registered under this name. *)

(** {1 Series snapshots}

    The structured form of {!snapshot}, for scrapers (pvmon) that need
    the kind of each name and the number of instrument instances folded
    into it.  Aggregation follows {!snapshot} exactly: counters sum,
    gauges are {b last-registered-wins} (the value is the newest
    registration's, not a sum — a scraper must surface [se_instances]
    when it is > 1 so multi-instance gauges are not mistaken for a
    total), histograms merge. *)

type series = {
  se_name : string;
  se_kind : [ `Counter | `Gauge | `Histogram ];
  se_value : float;
      (** counter total / newest gauge value / histogram count *)
  se_instances : int;  (** instrument registrations under this name *)
  se_summary : summary option;  (** histograms only *)
}

val series_snapshot : ?filter:string -> registry -> series list
(** One row per instrument name, sorted by name; [filter] as in
    {!snapshot}. *)

val histogram_summary : registry -> string -> summary option
(** Merged summary of every histogram registered under this name. *)
