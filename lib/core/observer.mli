(** The observer.

    Translates system-call events into provenance records (paper, Section
    5.3).  The interceptor in the simulated kernel reports each relevant
    system call here; the observer issues the corresponding DPAPI calls to
    the analyzer below it.  It is also the entry point for
    provenance-aware applications disclosing provenance explicitly. *)

type t

exception Lower_error of string
(** The DPAPI chain below the observer refused an object creation the
    observer cannot proceed without (a [pass_mkobj] for a process seen
    for the first time).  This is a wiring failure of the surrounding
    kernel/harness, not an event-stream condition, so it is deliberately
    an exception rather than a [Dpapi.error]: the paper's shim fails
    loudly instead of dropping provenance. *)

val create :
  ?registry:Telemetry.registry ->
  ?tracer:Pvtrace.t ->
  ?batch:bool ->
  ctx:Ctx.t ->
  lower:Dpapi.endpoint ->
  unit ->
  t
(** [create ~ctx ~lower ()] builds an observer whose lower layer is
    normally the analyzer.  [registry] receives the [observer.*]
    instruments (none registered when omitted); [tracer] (default
    {!Pvtrace.disabled}) records an "observer.emit" event per disclosed
    record batch.

    With [batch] (the default) emissions that carry only non-ancestry
    records for known virtual objects are accumulated per syscall burst
    and handed to the analyzer as one bundle at the next flush point — an
    ancestry record, a data write, a freeze/sync, or {!flush}.  The
    analyzer and distributor see the identical record stream either way
    (same order, same dedup keys, same cycle-avoidance decisions), so the
    resulting provenance graph is exactly the unbatched one;
    [~batch:false] restores emit-at-event-time for A/B comparison. *)

val flush : t -> (unit, Dpapi.error) result
(** Hand any queued burst downstream as one bundle.  Called internally at
    every batch boundary; callers that read the databases (drain,
    benchmarks) flush first. *)

val proc_handle : t -> int -> Dpapi.handle
(** The virtual object representing process [pid] (created on demand). *)

val fork : t -> parent:int -> child:int -> (unit, Dpapi.error) result

val execve :
  t ->
  pid:int ->
  path:string ->
  argv:string list ->
  env:string list ->
  binary:Dpapi.handle ->
  (unit, Dpapi.error) result

val exit : t -> pid:int -> (unit, Dpapi.error) result

val read :
  t ->
  pid:int ->
  file:Dpapi.handle ->
  off:int ->
  len:int ->
  (Dpapi.read_result, Dpapi.error) result
(** Performs the provenance-aware read and records that the process depends
    on the exact version read. *)

val write :
  t ->
  pid:int ->
  file:Dpapi.handle ->
  off:int ->
  data:string ->
  (int, Dpapi.error) result
(** Sends the data together with the record stating that the process is an
    input of the file; returns the version the write landed in. *)

val mmap :
  t -> pid:int -> file:Dpapi.handle -> writable:bool -> (unit, Dpapi.error) result

val pipe_create : t -> pid:int -> pipe_id:int -> (unit, Dpapi.error) result
val pipe_write : t -> pid:int -> pipe_id:int -> (unit, Dpapi.error) result
val pipe_read : t -> pid:int -> pipe_id:int -> (unit, Dpapi.error) result
val drop_inode : t -> file:Dpapi.handle -> (unit, Dpapi.error) result

val endpoint_for : t -> pid:int -> Dpapi.endpoint
(** The DPAPI face handed to a provenance-aware application running as
    process [pid].  Disclosed writes are augmented with the implicit
    application-to-file dependency record. *)
