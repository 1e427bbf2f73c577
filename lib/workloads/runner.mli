(** The measurement harness behind Tables 2 and 3.

    Each workload writes to the volume mounted at [/vol0] and is measured
    in two configurations: local (ext3 vs Lasagna-over-ext3) and remote
    (plain NFS vs PA-NFS, client and server both provenance-aware). *)

type workload = { wl_name : string; run : System.t -> unit }

val standard : ?scale:float -> unit -> workload list
(** The five paper workloads (Linux compile, Postmark, Mercurial, Blast,
    PA-Kepler); [scale] shrinks the op counts for quick runs. *)

val local_system :
  ?registry:Telemetry.registry ->
  ?tracer:Pvtrace.t ->
  ?monitor:Pvmon.t ->
  ?batching:bool ->
  System.mode ->
  System.t

val nfs_system :
  ?registry:Telemetry.registry ->
  ?tracer:Pvtrace.t ->
  ?monitor:Pvmon.t ->
  ?batching:bool ->
  System.mode ->
  System.t * Server.t
(** [batching] (default on) threads through to {!System.create} (observer
    bursts, Lasagna group commit) and, for {!nfs_system}, to the PA-NFS
    client's [piggyback]; [~batching:false] restores one record / one frame
    / one RPC at a time for A/B comparison.  [tracer] and [monitor] thread
    through to {!System.create} (for {!nfs_system} the tracer is shared
    with the server, so server spans parent onto client RPC spans, and
    the client machine's registry — [registry], or the fresh one
    {!System.create} makes — also receives the server's and the PA-NFS
    client's instruments, so the monitor scrapes them all). *)

type row = {
  r_name : string;
  base_seconds : float;
  pass_seconds : float;
  overhead_pct : float;
}

val measure_local : ?registry:Telemetry.registry -> workload -> row
(** One Table 2 local row: run on ext3 and on PASSv2, compare clocks.
    [registry] collects the telemetry of the PASS run only. *)

val measure_nfs : ?registry:Telemetry.registry -> workload -> row
(** One Table 2 NFS row; [registry] as in {!measure_local}. *)

type space_row = {
  s_name : string;
  ext3_mb : float;
  prov_mb : float;
  prov_pct : float;
  total_mb : float;
  total_pct : float;
}

val measure_space : workload -> space_row
(** One Table 3 row: data footprint from the baseline run, provenance
    database and index sizes from the PASS run. *)
