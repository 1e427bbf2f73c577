(** pvtrace: causal span tracing for the provenance pipeline (DESIGN §10).

    Every simos system call mints a root span; every DPAPI call it triggers
    opens a child span as the record travels observer → analyzer →
    distributor → Lasagna → Waldo.  The context crosses the PA-NFS wire in
    the {!Proto.call} envelope, so server-side spans parent onto the
    originating client RPC span, surviving retries and duplicate-request
    cache hits (retransmissions reuse the envelope, hence the ids).

    Determinism rules: span and trace ids are sequential allocators;
    timestamps come from the simulated clock; recording charges no
    simulated time.  Same workload + same fault seed ⇒ byte-identical
    exports.  The flight recorder is a bounded ring buffer that overwrites
    the oldest span; because a parent always completes (and is recorded)
    after its children, eviction never leaves a surviving span with a
    dangling parent.  Tracing is zero-cost when disabled, like
    {!Fault.none}: the {!disabled} singleton makes every hook a single
    branch. *)

type span = {
  sp_trace : int;  (** trace id: one per root (syscall or stray event) *)
  sp_id : int;  (** span id, unique per tracer *)
  sp_parent : int;  (** parent span id; 0 = root *)
  sp_layer : string;  (** e.g. "analyzer", "panfs.server" *)
  sp_op : string;  (** e.g. "pass_write", "syscall.read" *)
  sp_pnode : int;  (** subject pnode; 0 = none *)
  sp_start_ns : int;  (** simulated-clock start *)
  sp_dur_ns : int;  (** simulated duration; 0 for instantaneous events *)
  sp_outcome : string;  (** "ok", "emitted", "deduped", "cached", ... *)
}

type t

val disabled : t
(** The inactive tracer: every operation is a no-op costing one branch.
    The default everywhere a [?tracer] is accepted. *)

val create : ?capacity:int -> ?now:(unit -> int) -> unit -> t
(** An enabled tracer with a flight-recorder ring of [capacity] spans
    (default 262144).  [now] supplies simulated-ns timestamps (default:
    constant 0 until {!set_now} wires in a machine clock). *)

val set_now : t -> (unit -> int) -> unit
(** Wire the tracer to a simulated clock.  {!System.create} calls this
    with its machine clock when handed an enabled tracer. *)

val enabled : t -> bool

val recorded : t -> int
(** Spans currently held in the ring (≤ capacity). *)

val total : t -> int
(** Spans recorded over the tracer's lifetime, including evicted ones. *)

val dropped : t -> int
(** [total - recorded]: spans evicted by the bounded ring. *)

val reset : t -> unit
(** Empty the ring and the ambient stack; allocators keep counting so ids
    stay unique across resets. *)

val spans : t -> span list
(** Ring contents, oldest first (completion order). *)

val on_record : t -> (span -> unit) -> unit
(** Install the completion sink: [f sp] runs for every span the tracer
    records, in completion order — children strictly before their
    parents, which makes a streaming self-vs-children fold (pvmon's
    attribution) exact.  One sink per tracer (a later call replaces the
    earlier); no-op on {!disabled}.  The sink must not open spans. *)

val open_frames : t -> (string * string) list
(** The [(layer, op)] path of currently-open real spans, outermost
    first.  Called from inside an {!on_record} sink this is the recorded
    span's ancestor path, because a span's own frame is popped before it
    is recorded.  Virtual wire-context frames are skipped.  [[]] when
    disabled. *)

val span : t -> layer:string -> op:string -> ?pnode:int -> (unit -> 'a) -> 'a
(** [span t ~layer ~op f] runs [f] inside a new span.  The span parents
    onto the innermost open span (a fresh trace is minted at top level),
    and is recorded when [f] returns or raises.  Outcome defaults to
    "ok"; override with {!set_outcome}. *)

val event : t -> layer:string -> op:string -> ?pnode:int -> outcome:string -> unit -> unit
(** An instantaneous span (dur 0) recorded immediately, parented onto the
    innermost open span.  Used for layer decisions: deduped, cycle-broken,
    cached, flushed, replayed. *)

val set_outcome : t -> string -> unit
(** Set the outcome of the innermost open span (no-op at top level). *)

val current : t -> (int * int) option
(** [(trace_id, span_id)] of the innermost open span — what the PA-NFS
    client copies into the call envelope.  [None] when disabled or at top
    level. *)

val with_remote_parent : t -> trace:int -> span:int -> (unit -> 'a) -> 'a
(** Run [f] with a wire-carried context installed as ambient parent: spans
    opened inside parent onto the remote [span] within [trace].  No span
    is recorded for the virtual frame itself.  [trace = 0] (untraced
    sender) runs [f] unchanged. *)

val to_chrome : ?filter:string -> t -> string
(** Chrome trace-event JSON (chrome://tracing, Perfetto): complete "X"
    events, [ts]/[dur] in microseconds, one row ([tid]) per trace, span
    ids and outcomes under [args].  [filter] keeps spans whose layer (or
    "layer.op" name) sits under the dotted prefix, via
    {!Telemetry.name_under}.  Deterministic byte-for-byte. *)

val to_json : ?filter:string -> t -> Telemetry.Json.t
(** The same spans as a [Telemetry.Json] tree (schema "pvtrace/v1"):
    counts, drops, capacity, and one object per span. *)
