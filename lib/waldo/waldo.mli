(** Waldo: the user-level daemon that moves provenance from the WAP logs
    into the database and serves the query engine (paper, Section 5.6).

    Also resolves PA-NFS transactions: bundles tagged with a transaction
    id are buffered until ENDTXN; orphaned transactions (client crashed
    mid-transaction) are discarded at {!finalize}. *)

type t

type policy = Manual | Every_frames of int
(** When to take a checkpoint.  Under either policy a processed log
    stays on disk until a {!checkpoint} covers it, so a restart without
    one replays every log.  [Manual] (the default) checkpoints only when
    {!checkpoint} is called; [Every_frames n] also checkpoints after
    every [n] ingested frames. *)

val create :
  ?registry:Telemetry.registry ->
  ?tracer:Pvtrace.t ->
  ?policy:policy ->
  ?compact_keep:int ->
  lower:Vfs.ops ->
  unit ->
  t
(** [create ~lower ()] builds a Waldo reading logs from the [.pass]
    directory of [lower] (the file system beneath Lasagna).  [registry]
    receives the [waldo.*] instruments (none registered when omitted);
    [tracer] (default {!Pvtrace.disabled}) records ingest spans and
    committed / orphaned transaction events.  [compact_keep] bounds how
    many versions per node stay hot across a checkpoint (the rest move
    to cold-tier archive segments under {!Checkpoint.dir}). *)

val db : t -> Provdb.t

val attach : t -> Lasagna.t -> unit
(** Subscribe to the Lasagna instance's closed-log notifications (the
    simulated inotify). *)

val process_log : t -> dir:Vfs.ino -> name:string -> (unit, Vfs.errno) result
(** Ingest one closed log file.  The file stays on disk until a
    {!checkpoint} covers it. *)

val pending_txns : t -> int list
(** Transaction ids buffered but not yet ENDTXN-committed, sorted.  After
    a full replay these are the orphaned transactions. *)

val checkpoint : t -> (unit, Vfs.errno) result
(** Take a durable checkpoint: compact the db per [compact_keep], stage
    the hot image (plus an archive segment for newly-expired versions
    and a sidecar of in-flight transactions), commit them with an atomic
    MANIFEST rename, then truncate the WAP logs the image covers.  A
    crash at any disk tick leaves either the previous checkpoint (all
    logs intact) or the new one; {!recover} finishes interrupted
    cleanup.  This is Waldo's only durable image, under every policy. *)

type recovery_info = {
  ri_gen : int;  (** checkpoint generation recovered from, 0 = none *)
  ri_manifest : bool;  (** a durable checkpoint was found *)
  ri_watermark : int;  (** logs below this were covered by the image *)
  ri_logs_skipped : int;  (** covered logs found on disk, not replayed *)
  ri_logs_replayed : int;  (** suffix logs replayed after the image *)
  ri_frames_replayed : int;
  ri_pending_restored : int;  (** in-flight txns restored from the sidecar *)
  ri_archives : int;  (** cold-tier segments available for fault-in *)
}

val recover :
  ?registry:Telemetry.registry ->
  ?tracer:Pvtrace.t ->
  ?policy:policy ->
  ?compact_keep:int ->
  lower:Vfs.ops ->
  unit ->
  (t * recovery_info, Vfs.errno) result
(** Restart Waldo after a crash: adopt the checkpoint image (preserving
    compaction floors), restore in-flight transaction buffers from the
    sidecar, finish any cleanup the crash interrupted, and replay only
    the post-watermark log suffix.  Without a manifest this is the
    original full-history replay, and every file under
    {!Checkpoint.dir} is a stray to remove.  A torn or tampered MANIFEST,
    image or sidecar is [EIO], never a half-loaded database. *)

val fault_in_archive : t -> (unit, Vfs.errno) result
(** Eagerly load the cold-tier archive segments into the db (normally
    they fault in lazily on the first query below a compaction floor).
    A segment that fails to load is [EIO]; unlike the lazy query-path
    trigger, which re-arms and retries on the next query, the caller
    must not go on with a partial graph. *)

val finalize : t -> Lasagna.t -> int
(** Close the active log, drain it, and discard orphaned transactions;
    returns the number of orphans discarded. *)
