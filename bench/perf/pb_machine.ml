(* The machines the benchmark drives, and the shims that time them.

   Untraced runs use a machine built exactly as users get it:
   [Runner.local_system] / [Runner.nfs_system], i.e. [System.create].

   Traced runs assemble the same machine from the same public
   constructors, in the same order, and put a span on every layer
   boundary reachable from outside the library:
   - the Vfs.ops records of ext3, Lasagna and the PA-NFS client;
   - the DPAPI endpoints of the analyzer, distributor, Lasagna and the
     PA-NFS client;
   - the PA-NFS server handler;
   - Waldo ingest (the closed-log callback [Waldo.attach] installs);
   - every system call the benchmark makes, and Ext3.mount / Waldo.recover.
   Spans go to a benchmark-owned pvtrace tracer on the host clock, never
   to the machine's own tracer, so recording them charges no simulated
   time: both builds must produce bit-identical simulated results. *)

module Dpapi = Pass_core.Dpapi
module Observer = Pass_core.Observer
module Analyzer = Pass_core.Analyzer
module Distributor = Pass_core.Distributor
module Clock = Simdisk.Clock
module Disk = Simdisk.Disk

exception Op_failed of string

let ok what = function
  | Ok v -> v
  | Error e -> raise (Op_failed (what ^ ": " ^ Vfs.errno_to_string e))

type vol = { disk : Disk.t; ext3 : Ext3.t; lasagna : Lasagna.t; waldo : Waldo.t }

(* Where the workload's files and their provenance live. *)
type store =
  | Local of vol
  | Remote of { server : Server.t; net : Proto.net option; scratch : vol }

type t = {
  tr : Pvtrace.t;  (* the benchmark's host-clock tracer, or disabled *)
  kernel : Kernel.t;
  clock : Clock.t;
  registries : Telemetry.registry list;  (* one per simulated machine *)
  store : store;
  drain : unit -> int;
}

let vol_of (v : System.volume) =
  match (v.v_lasagna, v.v_waldo) with
  | Some lasagna, Some waldo -> { disk = v.v_disk; ext3 = v.v_ext3; lasagna; waldo }
  | _ -> invalid_arg "vol_of: not a PASS volume"

(* --- as users get it ------------------------------------------------------ *)

let local () =
  let registry = Telemetry.create () in
  let sys = Runner.local_system ~registry System.Pass in
  { tr = Pvtrace.disabled; kernel = System.kernel sys; clock = System.clock sys;
    registries = [ registry ];
    store = Local (vol_of (List.hd (System.volumes sys)));
    drain = (fun () -> System.drain sys) }

let nfs () =
  let registry = Telemetry.create () in
  let sys, server = Runner.nfs_system ~registry System.Pass in
  let scratch = vol_of (Option.get (System.find_volume sys "scratch")) in
  { tr = Pvtrace.disabled; kernel = System.kernel sys; clock = System.clock sys;
    registries = [ registry ];
    store = Remote { server; net = None; scratch };
    drain = (fun () -> System.drain sys + Server.drain server) }

(* --- shims ---------------------------------------------------------------- *)

let vfs tr layer (o : Vfs.ops) : Vfs.ops =
  if not (Pvtrace.enabled tr) then o
  else
    let sp op f = Pvtrace.span tr ~layer ~op f in
    {
      root = (fun () -> sp "root" o.root);
      lookup = (fun ~dir n -> sp "lookup" (fun () -> o.lookup ~dir n));
      create = (fun ~dir n k -> sp "create" (fun () -> o.create ~dir n k));
      unlink = (fun ~dir n -> sp "unlink" (fun () -> o.unlink ~dir n));
      rename =
        (fun ~src_dir ~src_name ~dst_dir ~dst_name ->
          sp "rename" (fun () -> o.rename ~src_dir ~src_name ~dst_dir ~dst_name));
      read = (fun ino ~off ~len -> sp "read" (fun () -> o.read ino ~off ~len));
      write = (fun ino ~off d -> sp "write" (fun () -> o.write ino ~off d));
      truncate = (fun ino n -> sp "truncate" (fun () -> o.truncate ino n));
      getattr = (fun ino -> sp "getattr" (fun () -> o.getattr ino));
      readdir = (fun ino -> sp "readdir" (fun () -> o.readdir ino));
      fsync = (fun ino -> sp "fsync" (fun () -> o.fsync ino));
      sync = (fun () -> sp "sync" o.sync);
    }

(* The DPAPI counterpart of [vfs].  (Dpapi.traced would time the same
   spans, but passarch reads its arguments as roots of the record hot
   path, and the PA-NFS client endpoint is not one.) *)
let dpapi tr layer (ep : Dpapi.endpoint) : Dpapi.endpoint =
  if not (Pvtrace.enabled tr) then ep
  else
    let sp op f = Pvtrace.span tr ~layer ~op f in
    {
      pass_read = (fun h ~off ~len -> sp "pass_read" (fun () -> ep.pass_read h ~off ~len));
      pass_write =
        (fun h ~off ~data b -> sp "pass_write" (fun () -> ep.pass_write h ~off ~data b));
      pass_freeze = (fun h -> sp "pass_freeze" (fun () -> ep.pass_freeze h));
      pass_mkobj = (fun ~volume -> sp "pass_mkobj" (fun () -> ep.pass_mkobj ~volume));
      pass_reviveobj = (fun p v -> sp "pass_reviveobj" (fun () -> ep.pass_reviveobj p v));
      pass_sync = (fun h -> sp "pass_sync" (fun () -> ep.pass_sync h));
    }

(* --- the traced mirror of System.create ----------------------------------- *)

(* System.create's volume router: the distributor's lower endpoint. *)
let router table : Dpapi.endpoint =
  let lookup (h : Dpapi.handle) : (Dpapi.endpoint, Dpapi.error) result =
    match h.volume with
    | None -> Error Dpapi.Einval
    | Some name -> (
        match List.assoc_opt name !table with
        | Some ep -> Ok ep
        | None -> Error Dpapi.Enoent)
  in
  let ( let* ) = Result.bind in
  {
    pass_read = (fun h ~off ~len -> let* ep = lookup h in ep.pass_read h ~off ~len);
    pass_write = (fun h ~off ~data b -> let* ep = lookup h in ep.pass_write h ~off ~data b);
    pass_freeze = (fun h -> let* ep = lookup h in ep.pass_freeze h);
    pass_mkobj =
      (fun ~volume ->
        match volume with
        | None -> Error Dpapi.Einval
        | Some name -> (
            match List.assoc_opt name !table with
            | Some ep -> ep.Dpapi.pass_mkobj ~volume
            | None -> Error Dpapi.Enoent));
    pass_reviveobj =
      (fun p v ->
        let rec try_all = function
          | [] -> Error Dpapi.Enoent
          | (_, ep) :: rest -> (
              match ep.Dpapi.pass_reviveobj p v with Ok h -> Ok h | Error _ -> try_all rest)
        in
        try_all !table);
    pass_sync = (fun h -> let* ep = lookup h in ep.pass_sync h);
  }

(* Waldo.attach, with the ingest call inside a span. *)
let attach tr ~lower waldo lasagna =
  let dir = ok "waldo: no .pass dir" (Vfs.lookup_path lower "/.pass") in
  Lasagna.on_log_closed lasagna (fun name _ino ->
      match
        Pvtrace.span tr ~layer:"waldo" ~op:"process_log" (fun () ->
            Waldo.process_log waldo ~dir ~name)
      with
      | Ok () -> ()
      | Error e -> raise (Op_failed ("waldo ingest: " ^ Vfs.errno_to_string e)))

type mirror = {
  m_kernel : Kernel.t;
  m_clock : Clock.t;
  table : (string * Dpapi.endpoint) list ref;
  vols : vol list;
  observer : Observer.t;
}

let mirror_system tr ~registry names =
  let clock = Clock.create () in
  let kernel = Kernel.create ~clock ~machine:1 () in
  let charge = Clock.advance clock in
  let table = ref [] in
  let ctx = Kernel.ctx kernel in
  let make_volume name =
    let disk = Disk.create ~registry ~clock () in
    let ext3 = Ext3.format disk in
    Ext3.set_cache_capacity ext3 2048;
    let lower = vfs tr "ext3" (Ext3.ops ext3) in
    let lasagna =
      Lasagna.create ~registry ~now:(fun () -> Clock.now clock) ~group_commit:true ~lower
        ~ctx ~volume:name ~charge ()
    in
    let waldo = Waldo.create ~registry ~lower () in
    attach tr ~lower waldo lasagna;
    let ep = dpapi tr "lasagna" (Lasagna.endpoint lasagna) in
    table := (name, ep) :: !table;
    Kernel.mount kernel ~name ~ops:(vfs tr "lasagna" (Lasagna.ops lasagna)) ~endpoint:ep
      ~file_handle:(fun ino ->
        Pvtrace.span tr ~layer:"lasagna" ~op:"file_handle" (fun () ->
            Lasagna.file_handle lasagna ino))
      ();
    { disk; ext3; lasagna; waldo }
  in
  let vols = List.map make_volume names in
  let distributor =
    Distributor.create ~registry ~ctx ~lower:(router table) ~default_volume:(List.hd names) ()
  in
  let analyzer =
    Analyzer.create ~registry ~charge ~ctx
      ~lower:(dpapi tr "distributor" (Distributor.endpoint distributor))
      ()
  in
  (* System.create's simulated-time histograms around the analyzer *)
  let write_ns = Telemetry.histogram ~registry "dpapi.pass_write_ns" in
  let freeze_ns = Telemetry.histogram ~registry "dpapi.pass_freeze_ns" in
  let now () = Clock.now clock in
  let inner = Analyzer.endpoint analyzer in
  let timed =
    {
      inner with
      Dpapi.pass_write =
        (fun h ~off ~data b ->
          Telemetry.with_span write_ns ~now (fun () -> inner.pass_write h ~off ~data b));
      pass_freeze = (fun h -> Telemetry.with_span freeze_ns ~now (fun () -> inner.pass_freeze h));
    }
  in
  let observer =
    Observer.create ~registry ~batch:true ~ctx
      ~lower:(dpapi tr "analyzer" timed) ()
  in
  Kernel.set_pass kernel { Kernel.observer; analyzer; distributor };
  { m_kernel = kernel; m_clock = clock; table; vols; observer }

(* System.drain *)
let mirror_drain m () =
  (match Observer.flush m.observer with Ok () | Error _ -> ());
  List.fold_left (fun acc v -> acc + Waldo.finalize v.waldo v.lasagna) 0 m.vols

let traced_local tr =
  let registry = Telemetry.create () in
  let m = mirror_system tr ~registry [ "vol0" ] in
  { tr; kernel = m.m_kernel; clock = m.m_clock; registries = [ registry ];
    store = Local (List.hd m.vols); drain = mirror_drain m }

(* Runner.nfs_system, with one registry per machine. *)
let traced_nfs tr =
  let registry = Telemetry.create () in
  let server_registry = Telemetry.create () in
  let m = mirror_system tr ~registry [ "scratch" ] in
  let server =
    Server.create ~registry:server_registry ~mode:Server.Pass_enabled ~clock:m.m_clock
      ~machine:2 ~volume:"vol0" ()
  in
  let net = Proto.net m.m_clock in
  let client =
    Client.create ~registry ~net
      ~handler:(fun call ->
        Pvtrace.span tr ~layer:"panfs_server" ~op:"handle" (fun () -> Server.handle server call))
      ~ctx:(Kernel.ctx m.m_kernel) ~mount_name:"vol0" ()
  in
  let ep = dpapi tr "panfs_client" (Client.endpoint client) in
  m.table := ("vol0", ep) :: !(m.table);
  Kernel.mount m.m_kernel ~name:"vol0" ~ops:(vfs tr "panfs_client" (Client.ops client))
    ~endpoint:ep
    ~file_handle:(fun ino ->
      Pvtrace.span tr ~layer:"panfs_client" ~op:"file_handle" (fun () ->
          Client.file_handle client ino))
    ~flush:(fun () ->
      Pvtrace.span tr ~layer:"panfs_client" ~op:"flush" (fun () -> Client.flush client))
    ();
  { tr; kernel = m.m_kernel; clock = m.m_clock; registries = [ registry; server_registry ];
    store = Remote { server; net = Some net; scratch = List.hd m.vols };
    drain = (fun () -> mirror_drain m () + Server.drain server) }

let create ~traced ~remote =
  match (traced, remote) with
  | None, false -> local ()
  | None, true -> nfs ()
  | Some tr, false -> traced_local tr
  | Some tr, true -> traced_nfs tr

(* --- the data volume ------------------------------------------------------- *)

let data_disk m =
  match m.store with Local v -> v.disk | Remote r -> Server.disk r.server

let data_ext3 m =
  match m.store with Local v -> v.ext3 | Remote r -> Server.ext3 r.server

let data_waldo m =
  match m.store with Local v -> v.waldo | Remote r -> Option.get (Server.waldo r.server)

let data_db m = Waldo.db (data_waldo m)

let counter m name =
  List.fold_left
    (fun acc r -> acc + Option.value (Telemetry.counter_value r name) ~default:0)
    0 m.registries

(* --- system calls, each one span of the simos layer ------------------------ *)

let sc m op f = Pvtrace.span m.tr ~layer:"simos" ~op f
let chunk = 4096

let fork m ~parent = sc m "fork" (fun () -> Kernel.fork m.kernel ~parent)

let execve m ~pid ~path ~argv =
  ok "execve"
    (sc m "execve" (fun () -> Kernel.execve m.kernel ~pid ~path ~argv ~env:[ "PATH=/vol0/bin" ]))

let exit m ~pid = ok "exit" (sc m "exit" (fun () -> Kernel.exit m.kernel ~pid))

let open_file m ~pid ~path ~create =
  ok "open" (sc m "open" (fun () -> Kernel.open_file m.kernel ~pid ~path ~create))

let close m ~pid ~fd = ok "close" (sc m "close" (fun () -> Kernel.close m.kernel ~pid ~fd))

let write_chunks m ~pid ~fd data =
  let len = String.length data in
  let pos = ref 0 in
  while !pos < len do
    let n = min chunk (len - !pos) in
    let piece = String.sub data !pos n in
    ok "write" (sc m "write" (fun () -> Kernel.write m.kernel ~pid ~fd ~data:piece));
    pos := !pos + n
  done

let write_file m ~pid ~path data =
  let fd = open_file m ~pid ~path ~create:true in
  write_chunks m ~pid ~fd data;
  close m ~pid ~fd

let append_file m ~pid ~path data =
  let st = ok "stat" (sc m "stat" (fun () -> Kernel.stat m.kernel ~path)) in
  let fd = open_file m ~pid ~path ~create:false in
  ok "seek" (sc m "seek" (fun () -> Kernel.seek m.kernel ~pid ~fd ~off:st.Vfs.st_size));
  write_chunks m ~pid ~fd data;
  close m ~pid ~fd

let read_file m ~pid ~path =
  let fd = open_file m ~pid ~path ~create:false in
  let buf = Buffer.create chunk in
  let rec loop () =
    let s = ok "read" (sc m "read" (fun () -> Kernel.read m.kernel ~pid ~fd ~len:chunk)) in
    if not (String.equal s "") then begin
      Buffer.add_string buf s;
      loop ()
    end
  in
  loop ();
  close m ~pid ~fd;
  Buffer.contents buf

let unlink m ~pid ~path = ok "unlink" (sc m "unlink" (fun () -> Kernel.unlink m.kernel ~pid ~path))

(* --- crash and restart ----------------------------------------------------- *)

type restart = { mount_ns : int; recover_ns : int; frames_replayed : int }

(* Pull the plug on the data disk, then time what a restart does: replay
   the ext3 journal and recover Waldo from its checkpoint.  Returns the
   recovered database with the timings. *)
let restart m =
  let disk = data_disk m in
  Disk.crash disk;
  Disk.revive disk;
  let t0 = Pb_host.now_ns () in
  let ext3 = Pvtrace.span m.tr ~layer:"ext3" ~op:"mount" (fun () -> Ext3.mount disk) in
  let t1 = Pb_host.now_ns () in
  let waldo, (info : Waldo.recovery_info) =
    ok "recover"
      (Pvtrace.span m.tr ~layer:"waldo" ~op:"recover" (fun () ->
           Waldo.recover ~registry:(List.hd m.registries)
             ~lower:(vfs m.tr "ext3" (Ext3.ops ext3)) ()))
  in
  let t2 = Pb_host.now_ns () in
  ( { mount_ns = t1 - t0; recover_ns = t2 - t1; frames_replayed = info.ri_frames_replayed },
    Waldo.db waldo )
