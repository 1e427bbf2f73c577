(** The measurement harness behind Tables 2 and 3.

    Each workload writes to the volume mounted at [/vol0] and is measured
    in two configurations: local (ext3 vs Lasagna-over-ext3) and remote
    (plain NFS vs PA-NFS, client and server both provenance-aware). *)

type workload = { wl_name : string; run : System.t -> unit }

val standard : ?scale:float -> unit -> workload list
(** The five paper workloads (Linux compile, Postmark, Mercurial, Blast,
    PA-Kepler); [scale] shrinks the op counts for quick runs. *)

val find : string -> (workload, string) result
(** The {!standard} workload whose slug — the name lowercased, spaces
    turned into [-] — is the argument: [linux-compile], [postmark],
    [mercurial-activity], [blast] or [pa-kepler].  The error message
    lists the slugs. *)

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

val mount_nfs :
  piggyback:bool -> System.t -> System.mode -> (string * Server.t) list -> Proto.net * Client.t list
(** Mount a PA-NFS client of each [(name, server)] on the machine at
    [/name], in order, all over one fresh simulated network on the
    machine's clock; each client reports into the machine's registry and
    tracer, with [piggyback] as in [Client.create].  On a PASS machine a
    mount joins the provenance router with its client's DPAPI endpoint
    and flushes write-behind on close; a vanilla machine mounts the bare
    VFS.  Returns the network and the clients, in mount order. *)

type figure1 = { workstation : System.t; server_a : Server.t; server_b : Server.t }

val figure1 : unit -> figure1
(** The paper's Figure 1 topology: a PASS workstation (machine 1, local
    volume [local]) with PA-NFS servers A (machine 21) and B (machine
    22) mounted at [/nfsA] and [/nfsB], all on the workstation's clock. *)

val figure1_merged : figure1 -> Provdb.t
(** Drain the workstation, then server A, then server B, and merge their
    three databases (in that order) into a fresh one. *)

type space_row = {
  s_name : string;
  ext3_mb : float;
  prov_mb : float;
  prov_pct : float;
  total_mb : float;
  total_pct : float;
}
(** One Table 3 row: data footprint from the baseline run, provenance
    database and index sizes from the PASS run. *)

type row = {
  r_name : string;
  base_seconds : float;
  pass_seconds : float;
  overhead_pct : float;
  r_space : space_row option;  (** Table 3's row, for a local run only *)
}

val run : tracer:Pvtrace.t -> monitor:Pvmon.t -> nfs:bool -> workload -> System.t
(** Build the PASS configuration — {!local_system}, or with [nfs] an
    {!nfs_system} — with [tracer] and [monitor], run the workload on it,
    then drain the client machine and then the server.  Returns the
    client machine; its clock reads the end of the run. *)

val measure : nfs:bool -> ?registry:Telemetry.registry -> workload -> row
(** One Table 2 row: run the workload on the baseline (ext3, or with
    [nfs] plain NFS) and on PASSv2 (PA-NFS), each built, run and drained
    as {!run} does, and compare clocks; a local run also reads both
    machines' space for Table 3.  [registry] collects the telemetry of
    the PASS run only. *)
