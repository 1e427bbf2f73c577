(** Cold-tier provenance archive.

    Compaction moves expired versions into append-only, digest-framed
    archive segments named by the checkpoint MANIFEST.  This module
    loads them back through one fault-in handler, run either lazily on
    the first sub-floor query or eagerly by [Waldo.fault_in_archive].
    A failed load re-arms the handler: the query path retries on its
    next sub-floor query, while the eager caller (fsck) reports [EIO]
    instead of checking a partial graph. *)

val install_handler :
  ?registry:Telemetry.registry ->
  Vfs.ops ->
  segments:(string * string) list ->
  Provdb.t ->
  unit
(** Arm the db to fault the listed [(name, digest)] segments in under
    {!Checkpoint.dir}, oldest first, on the first query that needs
    versions below a node's floor.  Every segment is read and checked
    before any is loaded, each straight into the db; one that is torn,
    tampered or disagrees with the manifest's digest fails the load.
    No-op when [segments] is empty.  Instruments [waldo.archive_fault_ins],
    [waldo.archive_segments_loaded] and [waldo.archive_load_errors]. *)
