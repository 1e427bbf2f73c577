(* The measurement harness behind Tables 2 and 3.

   Every workload writes to the volume mounted at /vol0 and is run twice
   per configuration:

   - local:  vol0 is ext3sim (baseline) vs Lasagna-over-ext3sim (PASSv2);
   - remote: vol0 is an NFS mount of a plain server (baseline) vs a PA-NFS
     mount of a PA server (client and server both provenance-aware).

   Elapsed time is the simulated machine clock; space is accounted after
   draining the WAP logs into Waldo. *)

type workload = {
  wl_name : string;
  run : System.t -> unit;
}

let standard ?(scale = 1.0) () =
  let s f = max 1 (int_of_float (float_of_int f *. scale)) in
  [
    {
      wl_name = "Linux Compile";
      run =
        (fun sys ->
          Linux_compile.run
            ~params:
              { Linux_compile.default with
                dirs = s Linux_compile.default.dirs;
                files_per_dir = s Linux_compile.default.files_per_dir }
            sys ~parent:Kernel.init_pid);
    }
    ;
    {
      wl_name = "Postmark";
      run =
        (fun sys ->
          Postmark.run
            ~params:
              { Postmark.default with
                files = s Postmark.default.files;
                transactions = s Postmark.default.transactions }
            sys ~parent:Kernel.init_pid);
    };
    {
      wl_name = "Mercurial Activity";
      run =
        (fun sys ->
          Mercurial.run
            ~params:
              { Mercurial.default with patches = s Mercurial.default.patches }
            sys ~parent:Kernel.init_pid);
    };
    { wl_name = "Blast"; run = (fun sys -> Blast.run sys ~parent:Kernel.init_pid) };
    {
      wl_name = "PA-Kepler";
      run = (fun sys -> Kepler_wl.run sys ~parent:Kernel.init_pid);
    };
  ]

(* A workload of {!standard} by its slug: the name lowercased, spaces
   turned into '-'.  The error lists the slugs. *)
let find name =
  let wls = standard () in
  let slug w = String.map (function ' ' -> '-' | c -> c) (String.lowercase_ascii w.wl_name) in
  match List.find_opt (fun w -> String.equal (slug w) name) wls with
  | Some w -> Ok w
  | None ->
      Error
        (Printf.sprintf "unknown workload %S; try: %s" name
           (String.concat ", " (List.map slug wls)))

(* --- configurations -------------------------------------------------------- *)

let local_system ?registry ?tracer ?monitor ?batching mode =
  System.create ?registry ?tracer ?monitor ?batching ~mode ~machine:1
    ~volume_names:[ "vol0" ] ()

(* Mount a PA-NFS client of each (name, server) pair on [sys], all over
   one simulated network on the machine's clock (client ids come from
   it), with the machine's registry and tracer.  On a PASS machine each
   mount joins the provenance router with the client's DPAPI endpoint
   and pushes its write-behind buffers on close (close-to-open); a
   vanilla machine mounts the bare VFS face. *)
let mount_nfs ~piggyback sys mode mounts =
  let net = Proto.net (System.clock sys) in
  let mount (name, server) =
    let client =
      Client.create ~registry:(System.telemetry sys) ~tracer:(System.tracer sys) ~piggyback
        ~net ~handler:(Server.handle server) ~ctx:(Kernel.ctx (System.kernel sys))
        ~mount_name:name ()
    in
    let ops = Client.ops client in
    (match mode with
    | System.Pass ->
        System.mount_external sys ~name ~ops ~endpoint:(Client.endpoint client)
          ~file_handle:(Client.file_handle client)
          ~flush:(fun () -> Client.flush client) ()
    | System.Vanilla -> System.mount_external sys ~name ~ops ());
    client
  in
  (net, List.map mount mounts)

(* A client machine with an NFS mount at vol0.  In PASS mode the client
   keeps a small local scratch volume so the machine has a default PASS
   volume, mirroring the paper's workstation.  A [tracer] is shared by the
   client machine and the server, which is what lets server-side spans
   parent onto client RPC spans in the exported trace; so is the machine's
   registry ({!System.telemetry}), which then covers the whole mount. *)
let nfs_system ?registry ?tracer ?monitor ?(batching = true) mode =
  let sys =
    System.create ?registry ?tracer ?monitor ~batching ~mode ~machine:1
      ~volume_names:(match mode with System.Pass -> [ "scratch" ] | System.Vanilla -> [])
      ()
  in
  let registry = System.telemetry sys in
  let server_mode =
    match mode with System.Pass -> Server.Pass_enabled | System.Vanilla -> Server.Plain
  in
  let server =
    Server.create ~registry ?tracer ~mode:server_mode ~clock:(System.clock sys) ~machine:2
      ~volume:"vol0" ()
  in
  ignore (mount_nfs ~piggyback:batching sys mode [ ("vol0", server) ] : Proto.net * Client.t list);
  (sys, server)

(* The paper's Figure 1 topology: a PASS workstation with a local disk
   plus two PA-NFS servers, A and B, mounted at /nfsA and /nfsB on the
   workstation's clock. *)
type figure1 = { workstation : System.t; server_a : Server.t; server_b : Server.t }

let figure1 () =
  let sys = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "local" ] () in
  let server machine volume =
    Server.create ~mode:Server.Pass_enabled ~clock:(System.clock sys) ~machine ~volume ()
  in
  let server_a = server 21 "nfsA" in
  let server_b = server 22 "nfsB" in
  ignore
    (mount_nfs ~piggyback:true sys System.Pass [ ("nfsA", server_a); ("nfsB", server_b) ]
      : Proto.net * Client.t list);
  { workstation = sys; server_a; server_b }

(* Drain the workstation, then each server, and merge the three
   databases into one: the layered view the paper's queries run on. *)
let figure1_merged f =
  ignore (System.drain f.workstation : int);
  ignore (Server.drain f.server_a : int);
  ignore (Server.drain f.server_b : int);
  let merged = Provdb.create () in
  Provdb.merge_into ~dst:merged ~src:(Option.get (System.waldo_db f.workstation "local"));
  Provdb.merge_into ~dst:merged ~src:(Option.get (Server.db f.server_a));
  Provdb.merge_into ~dst:merged ~src:(Option.get (Server.db f.server_b));
  merged

(* --- measurements ------------------------------------------------------------ *)

type space_row = {
  s_name : string;
  ext3_mb : float; (* baseline data footprint *)
  prov_mb : float; (* provenance database *)
  prov_pct : float;
  total_mb : float; (* provenance + indexes *)
  total_pct : float;
}

type row = {
  r_name : string;
  base_seconds : float;
  pass_seconds : float;
  overhead_pct : float;
  r_space : space_row option;
}

let overhead base pass = (pass -. base) /. base *. 100.

let mb bytes = float_of_int bytes /. (1024. *. 1024.)

(* Table 3: data footprint from the baseline run; provenance sizes from
   the PASS run (Waldo database + indexes). *)
let space_row name (base : System.space) (pass : System.space) =
  let ext3 = mb base.sp_data_bytes in
  let prov = mb pass.sp_db_bytes in
  let total = mb (pass.sp_db_bytes + pass.sp_index_bytes) in
  {
    s_name = name;
    ext3_mb = ext3;
    prov_mb = prov;
    prov_pct = (if ext3 > 0. then prov /. ext3 *. 100. else 0.);
    total_mb = total;
    total_pct = (if ext3 > 0. then total /. ext3 *. 100. else 0.);
  }

(* Build one configuration — the local volume, or an NFS mount of its own
   server — run [w] on it, then drain the client machine and then the
   server, so every WAP log has reached its Waldo. *)
let run_drained ?registry ?tracer ?monitor ~nfs mode w =
  let sys, server =
    if nfs then
      let sys, server = nfs_system ?registry ?tracer ?monitor mode in
      (sys, Some server)
    else (local_system ?registry ?tracer ?monitor mode, None)
  in
  w.run sys;
  ignore (System.drain sys : int);
  Option.iter (fun server -> ignore (Server.drain server : int)) server;
  sys

let run ~tracer ~monitor ~nfs w = run_drained ~tracer ~monitor ~nfs System.Pass w

(* [registry] collects the telemetry of the PASS-configuration run only,
   so its counters describe the provenance pipeline, not the baseline.
   The baseline machine is read (clock and space) before the PASS run
   starts, so it is not kept alive through it. *)
let measure ~nfs ?registry w =
  let base = run_drained ~nfs System.Vanilla w in
  let base_seconds = System.elapsed_seconds base and base_space = System.space base in
  let pass = run_drained ?registry ~nfs System.Pass w in
  let pass_seconds = System.elapsed_seconds pass in
  {
    r_name = w.wl_name;
    base_seconds;
    pass_seconds;
    overhead_pct = overhead base_seconds pass_seconds;
    r_space = (if nfs then None else Some (space_row w.wl_name base_space (System.space pass)));
  }
