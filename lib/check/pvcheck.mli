(** pvcheck: offline static verification of a stored provenance graph —
    an "fsck for provenance".

    Runs a pipeline of read-only passes over a Waldo database, one per
    invariant the analyzer is supposed to guarantee (paper, Section 5.4):
    acyclicity (cross-checked against the PASSv1 {!Pass_core.Cycle_detect}
    baseline as oracle), version-chain monotonicity, ancestor closure,
    duplicate-elimination idempotence, cross-layer reference integrity,
    and orphan-set agreement with recovery.  Findings are structured data
    with a severity and a repro hint, fit for telemetry JSON. *)

type severity = Error | Warning | Info

type finding = {
  f_pass : string;  (** which pass produced it (see {!pass_names}) *)
  f_severity : severity;
  f_subject : string;  (** the object/version or transaction concerned *)
  f_detail : string;
  f_repro : string;  (** how to reproduce/inspect the violation *)
}

type report = {
  r_volume : string;
  r_nodes : int;
  r_quads : int;
  r_edges : int;
  r_passes : string list;  (** passes that actually ran *)
  r_findings : finding list;
}

val pass_names : string list
(** All pass names, in pipeline order. *)

val clean : report -> bool
(** No findings. *)

val check_db :
  ?registry:Telemetry.registry ->
  ?volume:string ->
  ?recovery_orphans:int list ->
  ?waldo_orphans:int list ->
  Provdb.t ->
  report
(** [check_db db] runs the graph passes over [db].  The orphan-agreement
    pass runs only when both [recovery_orphans] (from
    {!Recovery.scan}'s [open_txns]) and [waldo_orphans] (from
    {!Waldo.pending_txns}) are supplied.  Publishes [pvcheck.runs] and
    [pvcheck.findings] counters into [registry]. *)

val fsck :
  ?registry:Telemetry.registry ->
  lower:Vfs.ops ->
  volume:string ->
  unit ->
  (report, Vfs.errno) result
(** [fsck ~lower ~volume ()] is the offline entry point: rebuild the
    database through {!Waldo.recover} — the daemon's own restart path,
    which adopts the checkpoint image (if any) and replays the WAP logs
    it does not cover — fault the cold-tier archive in, and run every
    pass, including orphan agreement against an independent
    {!Recovery.scan}.  A volume without [/.pass] is an empty graph.  A
    torn or tampered MANIFEST, image, sidecar or archive segment is
    [EIO]: fsck never checks a partial graph. *)

val report_to_json : report -> Telemetry.Json.t
(** The report as a telemetry JSON tree ([passctl fsck --json]). *)

val pp_report : Format.formatter -> report -> unit
