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

(* --- configurations -------------------------------------------------------- *)

let local_system ?registry ?tracer ?monitor ?batching mode =
  System.create ?registry ?tracer ?monitor ?batching ~mode ~machine:1
    ~volume_names:[ "vol0" ] ()

(* A client machine with an NFS mount at vol0.  In PASS mode the client
   keeps a small local scratch volume so the machine has a default PASS
   volume, mirroring the paper's workstation.  A [tracer] is shared by the
   client machine and the server, which is what lets server-side spans
   parent onto client RPC spans in the exported trace; so is the machine's
   registry ({!System.telemetry}), which then covers the whole mount. *)
let nfs_system ?registry ?tracer ?monitor ?batching mode =
  let sys =
    System.create ?registry ?tracer ?monitor ?batching ~mode ~machine:1
      ~volume_names:(match mode with System.Pass -> [ "scratch" ] | System.Vanilla -> [])
      ()
  in
  let clock = System.clock sys in
  let registry = System.telemetry sys in
  let server_mode =
    match mode with System.Pass -> Server.Pass_enabled | System.Vanilla -> Server.Plain
  in
  let server =
    Server.create ~registry ?tracer ~mode:server_mode ~clock ~machine:2 ~volume:"vol0" ()
  in
  let net = Proto.net clock in
  let client =
    Client.create ~registry ?tracer ?piggyback:batching ~net ~handler:(Server.handle server)
      ~ctx:(Kernel.ctx (System.kernel sys))
      ~mount_name:"vol0" ()
  in
  (match mode with
  | System.Pass ->
      System.mount_external sys ~name:"vol0" ~ops:(Client.ops client)
        ~endpoint:(Client.endpoint client)
        ~file_handle:(Client.file_handle client)
        ~flush:(fun () -> Client.flush client) ()
  | System.Vanilla -> System.mount_external sys ~name:"vol0" ~ops:(Client.ops client) ());
  (sys, server)

(* --- measurements ------------------------------------------------------------ *)

type row = {
  r_name : string;
  base_seconds : float;
  pass_seconds : float;
  overhead_pct : float;
}

let overhead base pass = (pass -. base) /. base *. 100.

(* [registry] collects the telemetry of the PASS-configuration run only,
   so its counters describe the provenance pipeline, not the baseline. *)
let measure_local ?registry w =
  let run ?registry mode =
    let sys = local_system ?registry mode in
    w.run sys;
    ignore (System.drain sys : int);
    System.elapsed_seconds sys
  in
  let base = run System.Vanilla in
  let pass = run ?registry System.Pass in
  { r_name = w.wl_name; base_seconds = base; pass_seconds = pass;
    overhead_pct = overhead base pass }

let measure_nfs ?registry w =
  let run ?registry mode =
    let sys, server = nfs_system ?registry mode in
    w.run sys;
    ignore (System.drain sys : int);
    ignore (Server.drain server : int);
    System.elapsed_seconds sys
  in
  let base = run System.Vanilla in
  let pass = run ?registry System.Pass in
  { r_name = w.wl_name; base_seconds = base; pass_seconds = pass;
    overhead_pct = overhead base pass }

type space_row = {
  s_name : string;
  ext3_mb : float; (* baseline data footprint *)
  prov_mb : float; (* provenance database *)
  prov_pct : float;
  total_mb : float; (* provenance + indexes *)
  total_pct : float;
}

let mb bytes = float_of_int bytes /. (1024. *. 1024.)

let measure_space w =
  (* data footprint from the baseline run; provenance sizes from the PASS
     run (Waldo database + indexes), as in Table 3 *)
  let base_sys = local_system System.Vanilla in
  w.run base_sys;
  let base_space = System.space base_sys in
  let sys = local_system System.Pass in
  w.run sys;
  ignore (System.drain sys : int);
  let space = System.space sys in
  let ext3 = mb base_space.System.sp_data_bytes in
  let prov = mb space.System.sp_db_bytes in
  let total = mb (space.System.sp_db_bytes + space.System.sp_index_bytes) in
  {
    s_name = w.wl_name;
    ext3_mb = ext3;
    prov_mb = prov;
    prov_pct = (if ext3 > 0. then prov /. ext3 *. 100. else 0.);
    total_mb = total;
    total_pct = (if ext3 > 0. then total /. ext3 *. 100. else 0.);
  }
