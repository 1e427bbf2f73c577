(** System assembly: a complete simulated machine.

    Builds the two configurations of the paper's evaluation (Section 7):
    [Vanilla] (ext3 volumes only — the baseline) and [Pass] (each volume
    Lasagna-stacked with a Waldo attached, and the kernel carrying the
    observer → analyzer → distributor → volume-router DPAPI chain).  Each
    volume is built by {!Volume}, as the PA-NFS server's is. *)

module Dpapi = Pass_core.Dpapi
module Clock = Simdisk.Clock
module Disk = Simdisk.Disk

type mode = Vanilla | Pass

type volume = Volume.t = {
  v_name : string;
  v_disk : Disk.t;
  v_ext3 : Ext3.t;
  v_lasagna : Lasagna.t option;
  v_waldo : Waldo.t option;
}

type t

val create :
  ?registry:Telemetry.registry ->
  ?fault:Fault.plan ->
  ?tracer:Pvtrace.t ->
  ?monitor:Pvmon.t ->
  ?batching:bool ->
  mode:mode ->
  machine:int ->
  volume_names:string list ->
  unit ->
  t
(** [registry] (default: a fresh registry of this machine's own, read
    back with {!telemetry}) receives the instruments of every layer of
    this machine — [disk.*], [wap.*], [waldo.*], [distributor.*],
    [analyzer.*], [observer.*].  DPAPI latency is not a registry
    instrument: it is the duration of the [analyzer.pass_write] /
    [analyzer.pass_freeze] spans, which a {!Pvmon} [Span_p99] rule turns
    into a histogram.  [fault] (default
    {!Fault.none}) is shared by every volume's disk.  [tracer] (default
    {!Pvtrace.disabled}) is wired to this machine's clock and threaded
    through every layer: system calls become root spans, each DPAPI hop
    ([analyzer.*], [distributor.*], [lasagna.*]) a child span, with layer
    decision events (deduped, cycle-broken, cached, flushed, ...) hanging
    off them.  [monitor] (default {!Pvmon.disabled}) is wired to the
    machine clock's advance hook, watches [registry], and installs
    itself as [tracer]'s completion sink — scrapes charge no simulated
    time, so an enabled monitor cannot perturb a run. *)

val telemetry : t -> Telemetry.registry
(** The registry this machine's layers report into. *)

val tracer : t -> Pvtrace.t
(** The tracer this machine's layers record spans into. *)

val clock : t -> Clock.t
val kernel : t -> Kernel.t
val volumes : t -> volume list
val find_volume : t -> string -> volume option

val elapsed_seconds : t -> float
(** The machine's simulated wall clock, in seconds. *)

val mount_external :
  t ->
  name:string ->
  ops:Vfs.ops ->
  ?endpoint:Dpapi.endpoint ->
  ?file_handle:(Vfs.ino -> (Dpapi.handle, Vfs.errno) result) ->
  ?flush:(unit -> (unit, Vfs.errno) result) ->
  unit ->
  unit
(** Mount an externally built file system (e.g. the PA-NFS client); with
    an [endpoint] it also joins the provenance routing table, and with
    [flush] its write-behind buffers are pushed on every close
    (close-to-open consistency). *)

val drain : t -> int
(** Close and process every volume's WAP logs; returns orphaned
    transactions discarded. *)

val waldo_db : t -> string -> Provdb.t option
(** The Waldo database of a volume (after {!drain} for a complete view). *)

type space = {
  sp_data_bytes : int;
  sp_db_bytes : int;
  sp_index_bytes : int;
}

val space : t -> space
(** Space accounting for Table 3. *)
