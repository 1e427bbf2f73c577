(* System assembly: builds a complete simulated machine in one of two
   configurations, mirroring the paper's evaluation setup (§7):

   - Vanilla: ext3 volumes only (the baseline columns of Tables 2 & 3);
   - Pass: each volume is Lasagna stacked over ext3, with a Waldo attached
     (both built by Volume, as the PA-NFS server's volume is), and the
     kernel carries the full observer -> analyzer -> distributor ->
     volume-router DPAPI chain.

   The router is the distributor's lower endpoint: it dispatches each DPAPI
   call to the Lasagna instance (or PA-NFS client) of the handle's volume. *)

module Dpapi = Pass_core.Dpapi
module Ctx = Pass_core.Ctx
module Observer = Pass_core.Observer
module Analyzer = Pass_core.Analyzer
module Distributor = Pass_core.Distributor
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

type t = {
  clock : Clock.t;
  kernel : Kernel.t;
  registry : Telemetry.registry;
  tracer : Pvtrace.t;
  mutable volumes : volume list;
  mutable router_table : (string * Dpapi.endpoint) list;
}

let clock t = t.clock
let telemetry t = t.registry
let tracer t = t.tracer
let kernel t = t.kernel
let volumes t = t.volumes
let elapsed_seconds t = Clock.seconds t.clock

let find_volume t name = List.find_opt (fun v -> String.equal v.v_name name) t.volumes

let router t : Dpapi.endpoint =
  let lookup (h : Dpapi.handle) =
    match h.volume with
    | None -> Error Dpapi.Einval
    | Some name -> (
        match List.assoc_opt name t.router_table with
        | Some ep -> Ok ep
        | None -> Error Dpapi.Enoent)
  in
  let ( let* ) = Result.bind in
  {
    pass_read =
      (fun h ~off ~len ->
        let* ep = lookup h in
        ep.pass_read h ~off ~len);
    pass_write =
      (fun h ~off ~data b ->
        let* ep = lookup h in
        ep.pass_write h ~off ~data b);
    pass_freeze =
      (fun h ->
        let* ep = lookup h in
        ep.pass_freeze h);
    pass_mkobj =
      (fun ~volume ->
        match volume with
        | None -> Error Dpapi.Einval
        | Some name -> (
            match List.assoc_opt name t.router_table with
            | Some ep -> ep.pass_mkobj ~volume
            | None -> Error Dpapi.Enoent));
    pass_reviveobj =
      (fun p v ->
        (* try every volume, newest mount first: pnodes are globally
           unique, so the first Ok wins; failing that, the first volume
           that knows the pnode but refuses it (Estale for a version it
           never had, Eio from a timed-out mount) gives the error, and
           Enoent means no volume knows it *)
        let rec try_all = function
          | [] -> Error Dpapi.Enoent
          | (_, ep) :: rest -> (
              match ep.Dpapi.pass_reviveobj p v with
              | Ok h -> Ok h
              | Error Dpapi.Enoent -> try_all rest
              | Error e -> ( match try_all rest with Ok h -> Ok h | Error _ -> Error e))
        in
        try_all t.router_table);
    pass_sync =
      (fun h ->
        let* ep = lookup h in
        ep.pass_sync h);
  }

(* Mount an externally built file system (e.g. the PA-NFS client) on this
   machine. *)
let mount_external t ~name ~ops ?endpoint ?file_handle ?flush () =
  (match endpoint with
  | Some ep -> t.router_table <- (name, ep) :: t.router_table
  | None -> ());
  Kernel.mount t.kernel ~name ~ops ?endpoint ?file_handle ?flush ()

let create ?(registry = Telemetry.create ()) ?(fault = Fault.none) ?(tracer = Pvtrace.disabled)
    ?(monitor = Pvmon.disabled) ?(batching = true) ~mode ~machine ~volume_names
    () =
  let clock = Clock.create () in
  Pvtrace.set_now tracer (fun () -> Clock.now clock);
  (* pvmon wiring: the scrape loop rides the clock's advance hook (so the
     scrape timeline is a function of simulated time only), the machine
     registry joins the scrape set, and the monitor becomes the tracer's
     completion sink for the attribution fold.  Nothing is installed for
     the disabled singleton — zero cost, like the tracer. *)
  if Pvmon.enabled monitor then begin
    Pvmon.watch monitor registry;
    Pvmon.attach_tracer monitor tracer;
    Clock.on_advance clock (fun now -> Pvmon.tick monitor now)
  end;
  let kernel = Kernel.create ~tracer ~clock ~machine () in
  let t = { clock; kernel; registry; tracer; volumes = []; router_table = [] } in
  let charge = Clock.advance clock in
  (* a Vanilla volume mounts ext3 bare; a Pass volume mounts Lasagna and
     joins the router with its storage endpoint *)
  let make_volume name =
    let v, endpoint =
      Volume.create ~registry ~fault ~tracer ~clock ~ctx:(Kernel.ctx kernel)
        ~group_commit:batching ~pass:(mode = Pass) name
    in
    mount_external t ~name ~ops:(Volume.ops v) ?endpoint
      ?file_handle:(Option.map Lasagna.file_handle v.v_lasagna) ();
    v
  in
  t.volumes <- List.map make_volume volume_names;
  (match (mode, t.volumes) with
  | Pass, { v_name = default_volume; _ } :: _ ->
      let ctx = Kernel.ctx kernel in
      let distributor =
        Distributor.create ~registry ~tracer ~ctx ~lower:(router t) ~default_volume ()
      in
      let analyzer =
        Analyzer.create ~registry ~charge ~tracer ~ctx
          ~lower:
            (Dpapi.traced ~tracer ~layer:"distributor"
               (Distributor.endpoint distributor))
          ()
      in
      let observer =
        Observer.create ~registry ~tracer ~batch:batching ~ctx
          ~lower:(Dpapi.traced ~tracer ~layer:"analyzer" (Analyzer.endpoint analyzer))
          ()
      in
      Kernel.set_pass kernel { Kernel.observer; analyzer; distributor }
  | Pass, [] | Vanilla, _ -> ());
  t

(* Drain all WAP logs into the Waldo databases; returns total orphaned
   transactions discarded. *)
let drain t =
  (match Kernel.pass_stack t.kernel with
  | Some s -> (
      (* release any observer burst still queued before the logs close *)
      match Observer.flush s.Kernel.observer with Ok () -> () | Error _ -> ())
  | None -> ());
  List.fold_left (fun acc v -> acc + Volume.drain v) 0 t.volumes

let waldo_db t name = Option.bind (find_volume t name) Volume.db

(* --- space accounting for Table 3 ---------------------------------------- *)

type space = {
  sp_data_bytes : int; (* workload data written to the baseline FS *)
  sp_db_bytes : int; (* Waldo database *)
  sp_index_bytes : int; (* Waldo indexes *)
}

let space t =
  List.fold_left
    (fun acc v ->
      let db_bytes, idx_bytes =
        match Volume.db v with
        | Some db -> (Provdb.db_bytes db, Provdb.index_bytes db)
        | None -> (0, 0)
      in
      {
        sp_data_bytes = acc.sp_data_bytes + Ext3.live_bytes v.v_ext3;
        sp_db_bytes = acc.sp_db_bytes + db_bytes;
        sp_index_bytes = acc.sp_index_bytes + idx_bytes;
      })
    { sp_data_bytes = 0; sp_db_bytes = 0; sp_index_bytes = 0 }
    t.volumes
