(** The PA-NFS client (paper, Sections 6.1.1–6.1.2).

    Presents {!Vfs.ops} (mountable like any file system) and the DPAPI
    (routable by the client machine's distributor).  Freezes are
    client-local: the version is incremented locally and the freeze
    record travels to the server inside the next OP_PASSWRITE for that
    file, so [pass_read] answers with the correct version without a
    round trip.  Writes larger than the 64 KB block size are
    encapsulated in transactions; contiguous streaming writes are
    coalesced up to the block size (NFS wsize write-behind), flushed
    before any read/getattr/namespace operation (close-to-open
    consistency). *)

module Dpapi = Pass_core.Dpapi
module Ctx = Pass_core.Ctx
module Pnode = Pass_core.Pnode

type t

val create :
  ?registry:Telemetry.registry ->
  ?wb_high_water:int ->
  ?piggyback:bool ->
  ?tracer:Pvtrace.t ->
  net:Proto.net ->
  handler:(Proto.call -> Proto.resp) ->
  ctx:Ctx.t ->
  mount_name:string ->
  unit ->
  t
(** [mount_name] is the volume name this client is mounted under on its
    machine; handles it returns carry it.  [registry] receives the
    [panfs.*] and [nfs.*] instruments, including the [panfs.rpc_latency]
    histogram of simulated round-trip nanoseconds (none registered when
    omitted).  [wb_high_water] (default 64) bounds the
    write-behind backlog used to ride out partitions: past it,
    provenance writes fail with [Eagain] (backpressure).

    [piggyback] (the default) lets coalesced writes to several files ride
    one [OP_PASSBATCH] envelope instead of one RPC each, and lets the
    backlog drain the same way; each envelope travels under a
    single sequence number, so replays hit the server's duplicate-request
    cache as one unit.  [~piggyback:false] restores one RPC per write for
    A/B comparison. *)

val crash : t -> unit
(** Simulate the client host dying: every subsequent call fails with
    ECRASH, leaving any in-flight transaction orphaned at the server. *)

val ops : t -> Vfs.ops
val endpoint : t -> Dpapi.endpoint
val file_handle : t -> Vfs.ino -> (Dpapi.handle, Vfs.errno) result

val flush : t -> (unit, Vfs.errno) result
(** Push everything the client holds to the server now: first the
    backlog, then the provenance riders (each file's coalesced writes,
    oldest first), then the plain-data buffer.  Intended as the [?flush]
    close-to-open hook of {!Kernel.mount}.  A timeout parks the unsent
    provenance writes in the backlog and still returns [Ok ()] — unless
    the backlog is full, which is [Error EAGAIN].  When the server refuses
    a write, that write is dropped and its errno returned; the riders
    behind it stay in the backlog, and the next flush (or any other drain)
    delivers them. *)

(** {1 Degraded mode}

    When the server stops answering (partition, restart), the retry
    budget is exhausted and provenance writes are parked in a bounded
    write-behind backlog instead of failing the application; past the
    high-water mark they fail with [Eagain].  The backlog replays in
    FIFO order, in the same envelopes as any other send, before any new
    provenance write, flush, read or sync.  A write the server refuses is
    dropped and its error surfaces to the call that sent it; the writes
    queued behind it stay queued. *)

val backlog : t -> int
(** Provenance writes currently parked in the backlog: those a timeout
    left unsent, and riders held behind a refused write.  Writes still in
    the riders' buffers or in flight are not counted. *)

val drain_backlog : t -> (unit, Dpapi.error) result
(** Replay the backlog now.  [Error Eagain] if the server is still
    unreachable; a refusal drops the refused write and returns its error,
    leaving the writes behind it parked.  Whatever drained stays drained. *)

(** {1 Transaction steps}

    Exposed so tests can crash a client between OP_BEGINTXN and the
    terminating OP_PASSWRITE; {!endpoint}'s [pass_write] drives them
    automatically for oversized writes. *)

val begin_txn : t -> (int, Dpapi.error) result
val send_prov_chunk : t -> txn:int -> Dpapi.bundle -> (unit, Dpapi.error) result

val end_txn_write :
  t -> txn:int -> Dpapi.handle -> off:int -> data:string option ->
  (int, Dpapi.error) result

val chunk_bundle : Dpapi.bundle -> Dpapi.bundle list
(** Split a bundle into chunks under the block size (oversized entries
    are split across several entries for the same target). *)

val pass_freeze : t -> Dpapi.handle -> (int, Dpapi.error) result
(** Client-local freeze (no RPC); also reachable via {!endpoint}. *)

val pass_read : t -> Dpapi.handle -> off:int -> len:int -> (Dpapi.read_result, Dpapi.error) result
val pass_write :
  t -> Dpapi.handle -> off:int -> data:string option -> Dpapi.bundle ->
  (int, Dpapi.error) result
