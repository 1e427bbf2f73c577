(** One storage volume in either configuration of the paper's evaluation
    (Section 7): disk → ext3, and in PASS mode Lasagna over ext3 (the page
    cache halved, as Lasagna caches its own pages) with a Waldo attached
    to Lasagna's closed-log hook.  {!System} and the PA-NFS server both
    build their volumes here: the server runs the same DPAPI stack as a
    local machine (Section 6.1.1). *)

type t = {
  v_name : string;
  v_disk : Simdisk.Disk.t;
  v_ext3 : Ext3.t;
  v_lasagna : Lasagna.t option;
  v_waldo : Waldo.t option;
}

val create :
  registry:Telemetry.registry ->
  fault:Fault.plan ->
  tracer:Pvtrace.t ->
  clock:Simdisk.Clock.t ->
  ctx:Pass_core.Ctx.t ->
  group_commit:bool ->
  pass:bool ->
  string ->
  t * Pass_core.Dpapi.endpoint option
(** [create ~pass name] builds volume [name] on a fresh disk of [clock]
    with [fault] injected; every layer reports into [registry] and
    [tracer], and Lasagna takes [ctx] and [group_commit].  With [pass] it
    also returns Lasagna's endpoint traced as the ["lasagna"] layer: the
    storage endpoint the layer above writes to. *)

val ops : t -> Vfs.ops
(** What the volume exports: Lasagna's VFS face, or ext3's. *)

val drain : t -> int
(** Close and process the WAP logs into Waldo; returns orphaned
    transactions discarded (0 on a plain volume). *)

val db : t -> Provdb.t option
(** The Waldo database (drain first for a complete view). *)
