(** The NFS server (paper, Section 6.1).

    In [Plain] mode it exports an ext3sim volume (the NFS baseline of
    Table 2).  In [Pass_enabled] mode the exported volume is
    Lasagna-stacked and the server runs its own analyzer above Lasagna —
    the paper's argument that with multiple clients, only the server sees
    all related provenance records, so analyzers are needed at both ends
    of the protocol, both speaking DPAPI. *)

module Ctx = Pass_core.Ctx
module Clock = Simdisk.Clock
module Disk = Simdisk.Disk

type mode = Plain | Pass_enabled

type t

val create :
  ?registry:Telemetry.registry ->
  ?fault:Fault.plan ->
  ?tracer:Pvtrace.t ->
  mode:mode ->
  clock:Clock.t ->
  machine:int ->
  volume:string ->
  unit ->
  t
(** [clock] is shared with the clients so server disk time appears as
    client-visible latency.  [registry] receives the [panfs.server.*] and
    [nfs.drc.*] counters, plus the instruments of the embedded disk and —
    in [Pass_enabled] mode — Lasagna, analyzer and Waldo (none registered
    when omitted).  [fault] is forwarded to the server's disk. *)

val handle : t -> Proto.call -> Proto.resp
(** Serve one call (the simulated transport calls this).  A call whose
    (client id, sequence number) is in the duplicate-request cache is
    answered from the cache — replayed, not re-executed — which is what
    makes retransmitted non-idempotent operations safe.  The cache
    persists across simulated server restarts, as NFSv4.1's persistent
    reply cache does. *)

val ctx : t -> Ctx.t
val waldo : t -> Waldo.t option
val lasagna : t -> Lasagna.t option
val disk : t -> Disk.t
val ext3 : t -> Ext3.t

val db : t -> Provdb.t option
(** The server's provenance database (drain first for a complete view). *)

val drain : t -> int
(** Flush the WAP logs into Waldo; returns orphaned transactions
    discarded (e.g. after a client crash mid-transaction). *)

val pnode_of_ino : t -> Vfs.ino -> Pass_core.Pnode.t option
