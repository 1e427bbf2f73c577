(** The analyzer.

    Processes the stream of provenance records, eliminating duplicates and
    ensuring that cyclic dependencies do not arise (paper, Section 5.4).
    PASSv2 uses a conservative {e cycle avoidance} algorithm that relies
    only on an object's local information; here that is a version
    birth-stamp order — an ancestry edge may only point at a version born
    strictly earlier, otherwise the source object is frozen first.  Every
    admitted edge then points strictly backwards in time, so the provenance
    graph is acyclic by construction. *)

type t

val create :
  ?registry:Telemetry.registry ->
  ?charge:(int -> unit) ->
  ?dedup:bool ->
  ?dedup_capacity:int ->
  ?tracer:Pvtrace.t ->
  ctx:Ctx.t ->
  lower:Dpapi.endpoint ->
  unit ->
  t
(** [create ~ctx ~lower ()] builds an analyzer stage above [lower].
    [registry] receives the [analyzer.*] instruments (none registered when
    omitted); [charge] receives simulated CPU nanoseconds as
    work is performed; [dedup] (default true) can be disabled for the
    ablation benchmark; [dedup_capacity] bounds the duplicate-detection
    table (epoch reset when full — duplicates may then be re-admitted,
    first occurrences are never lost); [tracer] (default
    {!Pvtrace.disabled}) records deduped / cycle-broken / adopted events
    and marks fully-absorbed writes "elided". *)

val endpoint : t -> Dpapi.endpoint
(** The DPAPI face of this analyzer, to be handed to the layer above. *)
