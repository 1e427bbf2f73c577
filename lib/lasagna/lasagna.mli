(** Lasagna: the provenance-aware file system (paper, Section 5.6).

    A stackable layer presenting {!Vfs.ops} like any file system while also
    implementing the DPAPI.  Provenance is written to a write-ahead log in
    a hidden [.pass] directory on the lower file system: the provenance
    frame (including an MD5 of the data) always reaches the log before the
    data it describes, so unprovenanced data can never exist on disk. *)

type t

val create :
  ?registry:Telemetry.registry ->
  ?log_max:int ->
  ?idle_ns:int ->
  ?now:(unit -> int) ->
  ?tracer:Pvtrace.t ->
  ?group_commit:bool ->
  lower:Vfs.ops ->
  ctx:Pass_core.Ctx.t ->
  volume:string ->
  charge:(int -> unit) ->
  unit ->
  t
(** [create ~lower ~ctx ~volume ~charge ()] stacks a Lasagna instance over
    [lower].  [registry] receives the [wap.*] and [lasagna.*] instruments
    (none registered when omitted); [charge] receives the double-buffering
    CPU nanoseconds the stacking costs; [log_max] (default 1 MiB) bounds
    the active log before rotation, and a log dormant for [idle_ns]
    (default 5 simulated seconds, measured on [now]) is closed on the next
    append — the paper's two rotation triggers.

    With [group_commit] (the default) WAP frames queue in memory and reach
    the log in one coalesced write at the next commit barrier — a data
    write they must precede, an fsync, rotation, or drain — charging the
    log-write interference once per commit instead of once per frame.  The
    log's byte stream is identical either way; [~group_commit:false]
    restores frame-at-a-time appends for A/B comparison. *)

val with_io_retry :
  Telemetry.counter -> (unit -> ('a, Vfs.errno) result) -> ('a, Vfs.errno) result
(** [with_io_retry retries f] runs [f], retrying it while it fails with
    a transient [EIO], at most 4 times; each retry increments [retries].
    Lasagna's data and log I/O and recovery's scan share this budget. *)

val ops : t -> Vfs.ops
(** The VFS face (hides the [.pass] directory). *)

val endpoint : t -> Pass_core.Dpapi.endpoint
(** The DPAPI face: [pass_read], [pass_write], [pass_freeze] as inode
    operations; [pass_mkobj], [pass_reviveobj] as superblock operations. *)

val write_txn_bundle :
  ?txn:int ->
  t ->
  Pass_core.Dpapi.handle ->
  off:int ->
  data:string option ->
  Pass_core.Dpapi.bundle ->
  (int, Pass_core.Dpapi.error) result
(** [pass_write] with an explicit PA-NFS transaction tag (Section 6.1.2). *)

val file_handle : t -> Vfs.ino -> (Pass_core.Dpapi.handle, Vfs.errno) result
(** The DPAPI handle of a file on this volume (registers the file lazily if
    it predates stacking). *)

val on_log_closed : t -> (string -> Vfs.ino -> unit) -> unit
(** Register a listener for closed logs (Waldo's simulated inotify). *)

val commit_log : t -> (unit, Vfs.errno) result
(** Write any queued WAP frames to the log in one group commit.  A no-op
    when the queue is empty.  Called internally before every data write,
    fsync and rotation; exposed for callers (the PA-NFS server) whose ack
    semantics require frames to be durable at a protocol boundary. *)

val flush_log : t -> unit
(** Force-close the active log so listeners can drain it (commits queued
    frames first). *)
