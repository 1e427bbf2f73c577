(* Chaos harness: postmark/blast-style workloads under seeded fault plans
   (ISSUE: robustness).  The invariants asserted are the paper's:

   - every write acknowledged to the application has consistent provenance
     after recovery (WAP, §5.6 — zero digest mismatches once faults clear);
   - orphaned transactions are exactly those of crashed or timed-out
     clients (§6.1.2 — Waldo discards them, nothing else);
   - duplicate delivery and retransmission never double-apply an
     operation (the server's duplicate-request cache replays, §6.1);
   - the system converges once faults clear (the write-behind backlog
     drains and reads observe the last acknowledged contents).

   Runs standalone (dune exec test/test_chaos.exe); the CI chaos-smoke job
   pins seeds via PASS_CHAOS_SEEDS and archives CHAOS_telemetry.json. *)

open Pass_core
module Clock = Simdisk.Clock
module Disk = Simdisk.Disk

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tstr = Alcotest.string

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "dpapi error: %s" (Dpapi.error_to_string e)

let ok_fs = function
  | Ok v -> v
  | Error e -> Alcotest.failf "fs error: %s" (Vfs.errno_to_string e)

let tv registry name = Option.value (Telemetry.counter_value registry name) ~default:0

let pinned_seeds =
  match Sys.getenv_opt "PASS_CHAOS_SEEDS" with
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
  | None -> [ 11; 23; 47 ]

(* One PA server + one PA-NFS client sharing a clock, with [plan] wired
   into both the transport and the server's disk. *)
type rig = {
  registry : Telemetry.registry;
  clock : Clock.t;
  plan : Fault.plan;
  net : Proto.net;
  server : Server.t;
  client : Client.t;
}

let rig ?(spec = Fault.default_chaos) ?wb_high_water ?piggyback ?tracer ~seed () =
  let registry = Telemetry.create () in
  let clock = Clock.create () in
  let plan = Fault.plan ~registry ~spec ~seed () in
  let server =
    Server.create ~registry ?tracer ~fault:plan ~mode:Server.Pass_enabled ~clock ~machine:2
      ~volume:"nfs0" ()
  in
  let net = Proto.net ~fault:plan clock in
  let client =
    Client.create ~registry ?wb_high_water ?piggyback ?tracer ~net
      ~handler:(Server.handle server) ~ctx:(Ctx.create ~machine:1) ~mount_name:"nfs0" ()
  in
  { registry; clock; plan; net; server; client }

let count_params db pnode =
  List.length
    (List.filter (fun (q : Record.t) -> q.attr = "PARAMS") (Provdb.records_all db pnode))

(* --- postmark under chaos ---------------------------------------------------- *)

type outcome = { o_registry : Telemetry.registry; o_digest : string; o_clock : int }

(* A postmark-style mix of creates, (re)writes and reads under a seeded
   fault plan.  The model records only acknowledged writes; after faults
   clear, every modelled file must read back its last acked contents, and
   recovery over the server's volume must find zero inconsistencies. *)
let postmark ?piggyback ~seed () =
  let r = rig ?piggyback ~seed () in
  let ops = Client.ops r.client in
  (* path -> (handle, last acked content, acked provenance writes) *)
  let model : (string, Dpapi.handle * string * int) Hashtbl.t = Hashtbl.create 64 in
  let acked path h data =
    let n = match Hashtbl.find_opt model path with Some (_, _, n) -> n | None -> 0 in
    Hashtbl.replace model path (h, data, n + 1)
  in
  let write path h k data =
    (* unique record values: the analyzer must not elide them, so the db
       count below is an exact no-double-apply check *)
    let bundle =
      [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str (Printf.sprintf "%s#%d" path k)) ] ]
    in
    match Client.pass_write r.client h ~off:0 ~data:(Some data) bundle with
    | Ok _ -> acked path h data
    | Error _ -> () (* not acked: the model owes nothing for it *)
  in
  for i = 0 to 39 do
    let path = Printf.sprintf "/p%03d" i in
    match Vfs.create_path ops path Vfs.Regular with
    | Error _ -> () (* create lost to the fault plan; the name is never reused *)
    | Ok ino -> (
        match Client.file_handle r.client ino with
        | Error _ -> ()
        | Ok h ->
            let body =
              String.make (64 + (i * 37 mod 512)) (Char.chr (97 + (i mod 26)))
            in
            write path h 0 (Printf.sprintf "%s:%s" path body);
            if i mod 5 = 0 then write path h 1 (Printf.sprintf "%s:v2:%s" path body);
            (* reads exercise the path under faults; no assertions here *)
            if i mod 3 = 0 then
              ignore
                (Client.pass_read r.client h ~off:0 ~len:8
                  : (Dpapi.read_result, Dpapi.error) result))
  done;
  (* faults clear: the system must converge *)
  Fault.deactivate r.plan;
  (match Client.drain_backlog r.client with
  | Ok () -> ()
  | Error e -> Alcotest.failf "backlog did not drain: %s" (Dpapi.error_to_string e));
  check tint "backlog empty once faults clear" 0 (Client.backlog r.client);
  (* a second client begins a transaction and dies: its transaction must
     be the only orphan *)
  let victim =
    (* shares the rig's net: client ids are per-net, and the server's DRC
       keys on (client id, seq) *)
    Client.create ~registry:r.registry ~net:r.net ~handler:(Server.handle r.server)
      ~ctx:(Ctx.create ~machine:3) ~mount_name:"nfs0" ()
  in
  let vic_ino = ok_fs (Vfs.create_path (Client.ops victim) "/victim" Vfs.Regular) in
  let vh = ok_fs (Client.file_handle victim vic_ino) in
  let txn = ok (Client.begin_txn victim) in
  ok
    (Client.send_prov_chunk victim ~txn
       [ Dpapi.entry vh [ Record.make "PARAMS" (Pvalue.Str "never-committed") ] ]);
  Client.crash victim;
  (* every acked write reads back its last acked contents *)
  Hashtbl.iter
    (fun path (h, data, _) ->
      match Client.pass_read r.client h ~off:0 ~len:(String.length data) with
      | Ok rr -> check tstr (path ^ " readback") data rr.Dpapi.data
      | Error e ->
          Alcotest.failf "%s unreadable after faults cleared: %s" path
            (Dpapi.error_to_string e))
    model;
  (* recovery over the server volume, before Waldo consumes the logs *)
  let report = ok_fs (Recovery.scan ~registry:r.registry (Ext3.ops (Server.ext3 r.server))) in
  check tint "zero acked writes with inconsistent provenance" 0
    (List.length report.Recovery.inconsistent);
  check (Alcotest.list tint) "open txns are exactly the crashed client's" [ txn ]
    report.Recovery.open_txns;
  let orphans = Server.drain r.server in
  check tint "orphans = crashed + abandoned txns"
    (1 + tv r.registry "nfs.txns_abandoned")
    orphans;
  (* no double-applies: each file holds exactly one record per acked write *)
  let db = Option.get (Server.db r.server) in
  Hashtbl.iter
    (fun path (h, _, n) ->
      check tint (path ^ " applied exactly once per ack") n (count_params db h.Dpapi.pnode))
    model;
  (* the surviving graph passes offline verification *)
  let vreport = Pvcheck.check_db ~volume:"nfs0" db in
  if not (Pvcheck.clean vreport) then
    Alcotest.failf "pvcheck after chaos run:@ %a" Pvcheck.pp_report vreport;
  check tbool "faults actually injected" true (tv r.registry "fault.injected.total" > 0);
  check tbool "client retried" true (tv r.registry "nfs.retries" > 0);
  check tbool "retransmissions replayed from the DRC" true (tv r.registry "nfs.drc.hits" > 0);
  { o_registry = r.registry; o_digest = Fault.digest r.plan; o_clock = Clock.now r.clock }

let test_postmark_under_chaos () =
  let last =
    List.fold_left (fun _ seed -> Some (postmark ~seed ())) None pinned_seeds
  in
  (* snapshot for the CI chaos-smoke artifact *)
  match last with
  | None -> Alcotest.fail "no seeds"
  | Some o ->
      let oc = open_out "CHAOS_telemetry.json" in
      output_string oc (Telemetry.to_json o.o_registry);
      output_char oc '\n';
      close_out oc

(* --- batching must not change the graph -------------------------------------- *)

(* The same run with and without the client's piggyback batching must
   produce the same provenance: batching changes how records travel (one
   OP_PASSBATCH envelope vs one RPC each), never what the graph says.
   Under a quiet plan the two server databases must be byte-identical and
   recovery must report the same (clean) outcome; under the default chaos
   plan the unbatched run must satisfy every invariant the batched
   chaos.001 run already asserts (convergence, pvcheck-clean, exactly one
   application per ack). *)
let quiet_run ~piggyback ~seed =
  let r = rig ~spec:Fault.quiet ~piggyback ~seed () in
  let ops = Client.ops r.client in
  for i = 0 to 23 do
    let path = Printf.sprintf "/e%03d" i in
    let ino = ok_fs (Vfs.create_path ops path Vfs.Regular) in
    let h = ok_fs (Client.file_handle r.client ino) in
    ignore
      (ok
         (Client.pass_write r.client h ~off:0 ~data:(Some path)
            [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str path) ] ])
        : int);
    (* a provenance-only write that piggyback merges into the pending
       buffer for the same file *)
    if i mod 4 = 0 then
      ignore
        (ok
           (Client.pass_write r.client h ~off:0 ~data:None
              [ Dpapi.entry h [ Record.make "ENV" (Pvalue.Str "quiet") ] ])
          : int)
  done;
  ok_fs (Client.flush r.client);
  let report = ok_fs (Recovery.scan ~registry:r.registry (Ext3.ops (Server.ext3 r.server))) in
  ignore (Server.drain r.server : int);
  let db = Option.get (Server.db r.server) in
  let v = Pvcheck.check_db ~volume:"nfs0" db in
  if not (Pvcheck.clean v) then Alcotest.failf "pvcheck (quiet run):@ %a" Pvcheck.pp_report v;
  (Provdb.serialize db, List.length report.Recovery.inconsistent, report.Recovery.open_txns)

let test_batching_on_off_same_provdb () =
  let seed = List.hd pinned_seeds in
  (* chaos plan, batching off: all of chaos.001's invariants still hold *)
  ignore (postmark ~piggyback:false ~seed () : outcome);
  (* quiet plan: byte-identical provenance and recovery either way *)
  let db_on, inc_on, txns_on = quiet_run ~piggyback:true ~seed in
  let db_off, inc_off, txns_off = quiet_run ~piggyback:false ~seed in
  check tint "recovery is clean with batching on" 0 inc_on;
  check tint "identical recovery outcome" inc_on inc_off;
  check (Alcotest.list tint) "identical open transactions" txns_on txns_off;
  check tbool "batched and unbatched provdbs are byte-identical" true
    (String.equal db_on db_off)

(* --- determinism ------------------------------------------------------------- *)

let compared_counters =
  [ "fault.injected.total"; "nfs.retries"; "nfs.drc.hits"; "nfs.drc.misses";
    "nfs.backpressure"; "nfs.txns_abandoned"; "lasagna.io_retries" ]

let test_same_seed_identical () =
  let seed = List.hd pinned_seeds in
  let a = postmark ~seed () in
  let b = postmark ~seed () in
  check tstr "byte-identical fault schedule" a.o_digest b.o_digest;
  check tint "identical simulated elapsed time" a.o_clock b.o_clock;
  List.iter
    (fun name -> check tint name (tv a.o_registry name) (tv b.o_registry name))
    compared_counters

(* --- tracing across the wire under chaos ------------------------------------- *)

(* The call envelope carries the trace context and is built once, before
   the retry loop, like the sequence number.  So a retransmission (and
   the DRC replay it triggers) must reuse the original span ids: every
   server span — including "cached" replays — parents onto a live client
   RPC span, and one client span fathers the original execution plus each
   replay.  Same seed ⇒ byte-identical Chrome artifact. *)
let traced_run ~seed () =
  let tracer = Pvtrace.create () in
  let r = rig ~tracer ~seed () in
  let ops = Client.ops r.client in
  for i = 0 to 39 do
    let path = Printf.sprintf "/w%03d" i in
    match Vfs.create_path ops path Vfs.Regular with
    | Error _ -> ()
    | Ok ino -> (
        match Client.file_handle r.client ino with
        | Error _ -> ()
        | Ok h ->
            ignore
              (Client.pass_write r.client h ~off:0 ~data:(Some path)
                 [ Dpapi.entry h [ Record.name path ] ]
                : (int, Dpapi.error) result);
            if i mod 3 = 0 then
              ignore
                (Client.pass_read r.client h ~off:0 ~len:4
                  : (Dpapi.read_result, Dpapi.error) result))
  done;
  Fault.deactivate r.plan;
  (match Client.drain_backlog r.client with
  | Ok () -> ()
  | Error e -> Alcotest.failf "backlog did not drain: %s" (Dpapi.error_to_string e));
  ignore (Server.drain r.server : int);
  (tracer, r.registry)

let test_wire_spans_under_chaos () =
  let seed = List.hd pinned_seeds in
  let tracer, registry = traced_run ~seed () in
  check tbool "faults forced retries" true (tv registry "nfs.retries" > 0);
  check tbool "retransmissions replayed from the DRC" true (tv registry "nfs.drc.hits" > 0);
  let spans = Pvtrace.spans tracer in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.Pvtrace.sp_id sp) spans;
  let servers = List.filter (fun sp -> sp.Pvtrace.sp_layer = "panfs.server") spans in
  check tbool "server spans recorded" true (servers <> []);
  (* every server span has a client parent, restarts and retries included *)
  List.iter
    (fun sp ->
      match Hashtbl.find_opt by_id sp.Pvtrace.sp_parent with
      | Some p ->
          check tstr "server span parents on a client rpc" "panfs.client" p.Pvtrace.sp_layer;
          check tint "and stays in the client's trace" p.Pvtrace.sp_trace sp.Pvtrace.sp_trace
      | None ->
          Alcotest.failf "server span %d (%s) has unresolved parent %d" sp.Pvtrace.sp_id
            sp.Pvtrace.sp_op sp.Pvtrace.sp_parent)
    servers;
  (* DRC replays surface as "cached" server spans; because the envelope is
     reused, the replay shares its parent with the original execution —
     the ids were not re-minted for the retransmission *)
  let cached = List.filter (fun sp -> sp.Pvtrace.sp_outcome = "cached") servers in
  check tbool "drc replays appear as cached server spans" true (cached <> []);
  let children_of parent =
    List.length (List.filter (fun sp -> sp.Pvtrace.sp_parent = parent) servers)
  in
  List.iter
    (fun sp ->
      check tbool "original execution and replay share one client span" true
        (children_of sp.Pvtrace.sp_parent >= 2))
    cached;
  (* same seed, same bytes *)
  let tracer2, _ = traced_run ~seed () in
  check tstr "byte-identical chrome artifact across same-seed runs"
    (Pvtrace.to_chrome tracer) (Pvtrace.to_chrome tracer2)

(* --- pvmon rides the chaos rig ------------------------------------------------ *)

(* The monitor watches the rig's registry, sinks the shared tracer and
   ticks off the shared clock — the same wiring System.create does, built
   by hand because the chaos rig has no simos.  The storm spec draws
   partitions longer than the client's retry budget, so writes park in
   the write-behind queue; with thresholds far below what that produces,
   the storm must trip the retry-rate and backlog rules.  And because
   every input is seeded, the whole monitor state — alert stream
   included — must be byte-identical across same-seed runs. *)
let monitor_storm_spec =
  {
    Fault.default_chaos with
    Fault.partition = 25;
    partition_ns = (900_000_000, 1_600_000_000);
  }

let monitored_run ~seed () =
  let tracer = Pvtrace.create () in
  let rules =
    [
      Pvmon.rule ~name:"nfs.retry_rate" ~source:(Pvmon.Counter_rate "nfs.retries")
        ~threshold:0.5 ();
      Pvmon.rule ~name:"nfs.wb_backlog_depth"
        ~source:(Pvmon.Gauge_value "nfs.wb_backlog") ~threshold:0.5 ();
    ]
  in
  let monitor = Pvmon.create ~interval_ns:1_000_000 ~rules () in
  let r = rig ~spec:monitor_storm_spec ~tracer ~seed () in
  Pvtrace.set_now tracer (fun () -> Clock.now r.clock);
  Pvmon.watch monitor r.registry;
  Pvmon.attach_tracer monitor tracer;
  Clock.on_advance r.clock (fun now -> Pvmon.tick monitor now);
  let ops = Client.ops r.client in
  for i = 0 to 39 do
    let path = Printf.sprintf "/m%03d" i in
    match Vfs.create_path ops path Vfs.Regular with
    | Error _ -> ()
    | Ok ino -> (
        match Client.file_handle r.client ino with
        | Error _ -> ()
        | Ok h ->
            ignore
              (Client.pass_write r.client h ~off:0 ~data:(Some path)
                 [ Dpapi.entry h [ Record.name path ] ]
                : (int, Dpapi.error) result))
  done;
  Fault.deactivate r.plan;
  (match Client.drain_backlog r.client with
  | Ok () -> ()
  | Error e -> Alcotest.failf "backlog did not drain: %s" (Dpapi.error_to_string e));
  ignore (Server.drain r.server : int);
  Pvmon.scrape monitor (Clock.now r.clock);
  monitor

let test_pvmon_under_chaos () =
  let seed = List.hd pinned_seeds in
  let m = monitored_run ~seed () in
  let fired name =
    List.exists
      (fun a -> a.Pvmon.al_firing && String.equal a.Pvmon.al_rule name)
      (Pvmon.alerts m)
  in
  check tbool "fault storm fires the retry-rate rule" true (fired "nfs.retry_rate");
  check tbool "fault storm fires the backlog rule" true
    (fired "nfs.wb_backlog_depth");
  check tbool "monitor scraped during the storm" true (Pvmon.scrapes m > 1);
  check tbool "spans folded into attribution" true (Pvmon.traced_spans m > 0);
  (* exact conservation holds under faults too: retries, replays and
     abandoned transactions are ordinary spans to the fold *)
  let self_sum =
    List.fold_left (fun a r -> a + r.Pvmon.lr_self_ns) 0 (Pvmon.attribution m)
  in
  check tint "attribution conserves traced time under chaos"
    (Pvmon.traced_total_ns m) self_sum;
  (* same seed ⇒ the full monitor state, alert stream included, is
     byte-identical *)
  let m2 = monitored_run ~seed () in
  check tstr "byte-identical pvmon export across same-seed runs"
    (Telemetry.Json.to_string (Pvmon.to_json m))
    (Telemetry.Json.to_string (Pvmon.to_json m2));
  check tstr "byte-identical openmetrics across same-seed runs"
    (Pvmon.to_openmetrics m) (Pvmon.to_openmetrics m2)

(* --- blast: >64 KB transactional writes under long partitions ---------------- *)

(* Partitions longer than the client's whole retry budget (~0.8 s of
   simulated time) force transaction abandonment and write-behind
   parking; the replay after faults clear must commit each blast exactly
   once, and Waldo must discard exactly the abandoned fragments. *)
let blast_spec =
  {
    Fault.default_chaos with
    Fault.partition = 25;
    partition_ns = (900_000_000, 1_600_000_000);
    server_restart = 5;
    restart_ns = (900_000_000, 1_200_000_000);
  }

let test_blast_no_double_apply () =
  let seed = List.hd pinned_seeds in
  let r = rig ~spec:blast_spec ~seed () in
  let ops = Client.ops r.client in
  let acked = ref [] in
  for i = 0 to 7 do
    let path = Printf.sprintf "/blast%d" i in
    match Vfs.create_path ops path Vfs.Regular with
    | Error _ -> ()
    | Ok ino -> (
        match Client.file_handle r.client ino with
        | Error _ -> ()
        | Ok h ->
            let records =
              List.init 3000 (fun j ->
                  Record.make "PARAMS" (Pvalue.Str (Printf.sprintf "b%d-%06d" i j)))
            in
            let bundle = [ Dpapi.entry h records ] in
            assert (Dpapi.bundle_size bundle > Proto.block_limit);
            (match Client.pass_write r.client h ~off:0 ~data:(Some "payload") bundle with
            | Ok _ -> acked := (path, h) :: !acked
            | Error _ -> ()))
  done;
  Fault.deactivate r.plan;
  (match Client.drain_backlog r.client with
  | Ok () -> ()
  | Error e -> Alcotest.failf "backlog did not drain: %s" (Dpapi.error_to_string e));
  check tbool "some blasts were acknowledged" true (!acked <> []);
  check tbool "the transaction path was exercised" true (tv r.registry "panfs.txns" > 0);
  let orphans = Server.drain r.server in
  check tint "orphans are exactly the abandoned txns"
    (tv r.registry "nfs.txns_abandoned")
    orphans;
  let db = Option.get (Server.db r.server) in
  List.iter
    (fun (path, (h : Dpapi.handle)) ->
      check tint (path ^ " committed exactly once") 3000 (count_params db h.Dpapi.pnode))
    !acked

(* --- backpressure during a long partition ------------------------------------ *)

let test_backpressure_bounds_backlog () =
  let seed = 101 in
  (* phase 1: under a quiet plan, count the RPCs the setup needs, so the
     real run's fault window opens exactly after setup *)
  let setup r =
    let ino = ok_fs (Vfs.create_path (Client.ops r.client) "/bp" Vfs.Regular) in
    ok_fs (Client.file_handle r.client ino)
  in
  let probe = rig ~spec:Fault.quiet ~seed () in
  ignore (setup probe : Dpapi.handle);
  let setup_rpcs = tv probe.registry "panfs.rpcs" in
  (* phase 2: everything after setup hits a partition far longer than the
     retry budget *)
  let hour = 3_600_000_000_000 in
  let spec =
    {
      Fault.quiet with
      Fault.partition = 1000;
      partition_ns = (hour, hour);
      net_after_op = setup_rpcs;
    }
  in
  let r = rig ~spec ~wb_high_water:8 ~seed () in
  let h = setup r in
  let wrote = ref 0 and eagain = ref 0 in
  for k = 1 to 12 do
    let bundle =
      [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str (Printf.sprintf "bp#%02d" k)) ] ]
    in
    match Client.pass_write r.client h ~off:0 ~data:None bundle with
    | Ok _ -> incr wrote
    | Error Dpapi.Eagain -> incr eagain
    | Error e -> Alcotest.failf "unexpected error: %s" (Dpapi.error_to_string e)
  done;
  check tint "backlog capped at the high-water mark" 8 (Client.backlog r.client);
  check tint "writes past the mark fail with EAGAIN" 4 !eagain;
  check tbool "backpressure counted" true (tv r.registry "nfs.backpressure" > 0);
  (match Client.drain_backlog r.client with
  | Error Dpapi.Eagain -> ()
  | _ -> Alcotest.fail "drain must refuse while partitioned");
  Fault.deactivate r.plan;
  ok (Client.drain_backlog r.client);
  check tint "backlog empty once the partition heals" 0 (Client.backlog r.client);
  ignore (Server.drain r.server : int);
  let db = Option.get (Server.db r.server) in
  check tint "every parked write reached the server exactly once" !wrote
    (count_params db h.Dpapi.pnode)

(* --- disk faults against a local Lasagna ------------------------------------- *)

let local_rig ~registry () =
  let clock = Clock.create () in
  let disk = Disk.create ~registry ~clock () in
  let ext3 = Ext3.format disk in
  let lasagna =
    Lasagna.create ~registry ~lower:(Ext3.ops ext3) ~ctx:(Ctx.create ~machine:1)
      ~volume:"vol0" ~charge:(Clock.advance clock) ()
  in
  (disk, ext3, lasagna)

let test_transient_io_retried () =
  let registry = Telemetry.create () in
  let disk, _ext3, lasagna = local_rig ~registry () in
  let ops = Lasagna.ops lasagna in
  (* create the tree first: only the read/write paths carry the retry *)
  let inos =
    List.init 20 (fun i -> ok_fs (Vfs.create_path ops (Printf.sprintf "/t%02d" i) Vfs.Regular))
  in
  Disk.set_fault disk
    (Fault.plan ~registry
       ~spec:{ Fault.quiet with Fault.disk_read_error = 80; disk_write_error = 80 }
       ~seed:7 ());
  let payload i = Printf.sprintf "transient-%02d:%s" i (String.make 200 't') in
  List.iteri (fun i ino -> ok_fs (ops.Vfs.write ino ~off:0 (payload i))) inos;
  List.iteri
    (fun i ino ->
      let want = payload i in
      check tstr
        (Printf.sprintf "/t%02d survives transient EIO" i)
        want
        (ok_fs (ops.Vfs.read ino ~off:0 ~len:(String.length want))))
    inos;
  check tbool "transient errors were retried" true (tv registry "lasagna.io_retries" > 0)

let corruption_case name spec_of_quiet =
  let registry = Telemetry.create () in
  let disk, ext3, lasagna = local_rig ~registry () in
  let ops = Lasagna.ops lasagna in
  let ep = Lasagna.endpoint lasagna in
  let ino = ok_fs (Vfs.create_path ops "/victim" Vfs.Regular) in
  let h = ok_fs (Lasagna.file_handle lasagna ino) in
  ignore
    (ok
       (ep.Dpapi.pass_write h ~off:0
          ~data:(Some (String.make 4096 'a'))
          [ Dpapi.entry h [ Record.name "victim" ] ])
      : int);
  (* the next write is silently damaged on the medium *)
  Disk.set_fault disk (Fault.plan ~registry ~spec:(spec_of_quiet Fault.quiet) ~seed:7 ());
  ignore
    (ep.Dpapi.pass_write h ~off:0
       ~data:(Some (String.make 4096 'b'))
       [ Dpapi.entry h [ Record.name "victim" ] ]
      : (int, Dpapi.error) result);
  Disk.set_fault disk Fault.none;
  ignore (ext3 : Ext3.t);
  (* a fresh mount, so recovery reads the damaged medium rather than the
     page cache; it must report the damage as an inconsistency, never raise *)
  let remounted = Ext3.mount disk in
  let report = ok_fs (Recovery.scan ~registry (Ext3.ops remounted)) in
  check tbool (name ^ " detected by the WAP digests") true
    (report.Recovery.inconsistent <> [] || report.Recovery.torn_bytes > 0)

let test_latent_corruption_reported () =
  corruption_case "corrupt sector" (fun q -> { q with Fault.corrupt_sector = 1000 });
  corruption_case "torn write" (fun q -> { q with Fault.torn_write = 1000 })

(* --- crashes during checkpoint / truncate / archive -------------------------- *)

(* A local Lasagna+Waldo rig; the disk is exposed so the sweep can pull
   the plug at a chosen write tick. *)
let ckpt_rig ~registry ?compact_keep () =
  let clock = Clock.create () in
  let disk = Disk.create ~registry ~clock () in
  let ext3 = Ext3.format disk in
  let lasagna =
    Lasagna.create ~registry ~log_max:256 ~lower:(Ext3.ops ext3)
      ~ctx:(Ctx.create ~machine:1) ~volume:"vol0" ~charge:(Clock.advance clock) ()
  in
  let waldo = Waldo.create ~registry ?compact_keep ~lower:(Ext3.ops ext3) () in
  Waldo.attach waldo lasagna;
  (disk, ext3, lasagna, waldo)

(* Deterministic version history: 6 files, 3 freeze rounds each, so a
   compacting checkpoint has versions to push into the cold tier.  With
   [~alias], file 0 also gets a lowercase-[name] alias at version 0, so
   after compaction that alias lives only in the archive. *)
let ckpt_workload ?(alias = false) lasagna waldo =
  let ep = Lasagna.endpoint lasagna in
  let hs =
    Array.init 6 (fun i ->
        let h = ok (ep.Dpapi.pass_mkobj ~volume:(Some "vol0")) in
        ok (Dpapi.disclose ep h [ Record.name (Printf.sprintf "f%d" i) ]);
        if alias && i = 0 then
          ok (Dpapi.disclose ep h [ Record.make "name" (Pvalue.Str "legacy-f0") ]);
        h)
  in
  for round = 1 to 3 do
    Array.iter
      (fun h ->
        ok (Dpapi.disclose ep h [ Record.make "PARAMS" (Pvalue.Int round) ]);
        ignore (ok (ep.Dpapi.pass_freeze h) : int))
      hs
  done;
  ignore (Waldo.finalize waldo lasagna : int);
  hs

(* Crash at every disk-write tick of a compacting checkpoint (image,
   archive segment, pending sidecar, MANIFEST rename, truncation,
   old-generation cleanup).  Whatever the tick, recovery must land on a
   provdb byte-identical to the no-crash run's, and pvcheck must come
   back clean over checkpoint + archive + suffix.  Ticks before the
   MANIFEST rename recover to the pre-checkpoint state (all logs
   intact) and re-checkpoint; ticks after it adopt the new image and
   finish the interrupted cleanup. *)
let test_crash_during_checkpoint_sweep () =
  (* reference: the same rig, checkpointed without a crash *)
  let reference, ckpt_writes =
    let registry = Telemetry.create () in
    let _disk, _ext3, lasagna, waldo =
      ckpt_rig ~registry ~compact_keep:1 ()
    in
    ignore (ckpt_workload lasagna waldo : Dpapi.handle array);
    let before = tv registry "disk.writes" in
    ok_fs (Waldo.checkpoint waldo);
    let writes = tv registry "disk.writes" - before in
    ok_fs (Waldo.fault_in_archive waldo);
    (Provdb.serialize (Waldo.db waldo), writes)
  in
  check tbool "checkpoint hits the disk" true (ckpt_writes > 0);
  let ticks =
    if ckpt_writes <= 64 then List.init ckpt_writes (fun i -> i + 1)
    else
      (* too many ticks to sweep exhaustively: seeded sample, endpoints pinned *)
      List.sort_uniq Int.compare
        ((1 :: [ ckpt_writes ])
        @ List.concat_map
            (fun seed -> Fault.crash_points ~seed ~writes:ckpt_writes ~count:24)
            pinned_seeds)
  in
  let precommit = ref 0 and postcommit = ref 0 in
  List.iter
    (fun k ->
      let registry = Telemetry.create () in
      let disk, _ext3, lasagna, waldo =
        ckpt_rig ~registry ~compact_keep:1 ()
      in
      ignore (ckpt_workload lasagna waldo : Dpapi.handle array);
      Disk.schedule_crash disk ~after_writes:k;
      (match Waldo.checkpoint waldo with Ok () | Error _ -> ());
      Disk.revive disk;
      let ext3 = Ext3.mount disk in
      let lower = Ext3.ops ext3 in
      let w2, info =
        ok_fs (Waldo.recover ~registry ~compact_keep:1 ~lower ())
      in
      (if info.Waldo.ri_manifest then begin
         (* the MANIFEST rename had landed: the new checkpoint wins *)
         incr postcommit;
         check tint (Printf.sprintf "tick %d: recovered generation" k) 1 info.Waldo.ri_gen;
         (* covered logs may still be on disk (crash before truncation
            finished) but are skipped unread; only the suffix replays *)
         check tbool
           (Printf.sprintf "tick %d: replay bounded by the watermark" k)
           true
           (info.Waldo.ri_logs_replayed <= 1)
       end
       else begin
         (* pre-commit crash: every log survived; re-checkpoint and the
            sweep converges on the very same image *)
         incr precommit;
         check tbool
           (Printf.sprintf "tick %d: pre-commit crash keeps all logs" k)
           true
           (info.Waldo.ri_logs_replayed >= 1);
         ok_fs (Waldo.checkpoint w2)
       end);
      ok_fs (Waldo.fault_in_archive w2);
      if not (String.equal reference (Provdb.serialize (Waldo.db w2))) then
        Alcotest.failf "crash at write tick %d diverged from the no-crash provdb" k;
      (* the on-disk state also passes offline verification *)
      let v = ok_fs (Pvcheck.fsck ~registry ~lower ~volume:"vol0" ()) in
      if not (Pvcheck.clean v) then
        Alcotest.failf "pvcheck after crash at tick %d:@ %a" k Pvcheck.pp_report v)
    ticks;
  check tbool "sweep crossed the commit point" true (!precommit > 0 && !postcommit > 0)

(* A transaction that straddles the checkpoint boundary: BEGINTXN below
   the watermark (carried by the pending sidecar), ENDTXN in the suffix.
   After a crash and recovery the transaction commits exactly once, and
   the final provdb is byte-identical to a control run that never
   checkpointed at all. *)
let test_txn_across_checkpoint_boundary () =
  let run ~checkpointed () =
    let registry = Telemetry.create () in
    let disk, ext3, lasagna, waldo = ckpt_rig ~registry () in
    let ep = Lasagna.endpoint lasagna in
    let h = ok (ep.Dpapi.pass_mkobj ~volume:(Some "vol0")) in
    ok (Dpapi.disclose ep h [ Record.name "txn-straddle" ]);
    ignore
      (ok
         (Lasagna.write_txn_bundle ~txn:5 lasagna h ~off:0 ~data:None
            [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str "pre-boundary") ] ])
        : int);
    Lasagna.flush_log lasagna;
    (* the open transaction is now buffered inside Waldo *)
    let lasagna, waldo, restored =
      if not checkpointed then (lasagna, waldo, 0)
      else begin
        ok_fs (Waldo.checkpoint waldo);
        Disk.crash disk;
        Disk.revive disk;
        let ext3 = Ext3.mount disk in
        let w2, info = ok_fs (Waldo.recover ~registry ~lower:(Ext3.ops ext3) ()) in
        let l2 =
          Lasagna.create ~registry ~log_max:256 ~lower:(Ext3.ops ext3)
            ~ctx:(Ctx.create ~machine:1) ~volume:"vol0" ~charge:(fun _ -> ()) ()
        in
        Waldo.attach w2 l2;
        (l2, w2, info.Waldo.ri_pending_restored)
      end
    in
    ignore (ext3 : Ext3.t);
    if checkpointed then
      check tint "in-flight txn restored from the sidecar" 1 restored;
    (* the ENDTXN arrives in the post-checkpoint suffix *)
    ignore
      (ok
         (Lasagna.write_txn_bundle ~txn:5 lasagna h ~off:0 ~data:None
            [ Dpapi.entry h [ Record.make Record.Attr.endtxn (Pvalue.Int 5) ] ])
        : int);
    let orphans = Waldo.finalize waldo lasagna in
    check tint "straddling txn is not an orphan" 0 orphans;
    let quads =
      List.filter
        (fun (q : Record.t) -> q.value = Pvalue.Str "pre-boundary")
        (Provdb.records_all (Waldo.db waldo) h.Dpapi.pnode)
    in
    check tint "txn chunk applied exactly once" 1 (List.length quads);
    Provdb.serialize (Waldo.db waldo)
  in
  let straddled = run ~checkpointed:true () in
  let control = run ~checkpointed:false () in
  check tbool "checkpointed and control provdbs are byte-identical" true
    (String.equal straddled control)

(* --- index consistency across crash/recover and archive fault-in ------------- *)

(* The provdb's secondary indexes (name postings, inverted attribute
   index, resident cells, forward and reverse edges) are maintained
   incrementally under ingestion, merge, compaction and archive
   fault-in, and rebuilt wholesale by deserialize.  Whatever the
   route into the store — checkpoint image, crash recovery, cold-tier
   fault-in — the maintained indexes must agree exactly with a
   from-scratch rebuild, and the cost-based planner must keep returning
   the naive oracle's rows. *)
let test_indexes_consistent_after_crash_and_archive () =
  let verify what db =
    match Provdb.verify_indexes db with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "index consistency %s: %s" what msg
  in
  let row_key row =
    String.concat "|"
      (List.map
         (function
           | Pql_eval.Node (p, v) -> Printf.sprintf "n:%d:%d" (Pnode.to_int p) v
           | Pql_eval.Value v -> Format.asprintf "v:%a" Pvalue.pp v)
         row)
  in
  let query_matches_oracle what db text =
    let ast = Pql.parse text in
    let planner = Pql.Engine.execute (Pql.Engine.prepare_ast db ast) in
    let naive = Pql_eval.reference_rows db ast in
    let keys rows = List.sort String.compare (List.map row_key rows) in
    check Alcotest.(list string) (what ^ ": planner rows = oracle rows") (keys naive)
      (keys planner);
    check tbool (what ^ ": rows nonempty") true (planner <> [])
  in
  let planner_matches_oracle what db =
    query_matches_oracle what db
      {|select A from Provenance.object as F F.input* as A where F.name = "f3"|}
  in
  (* the only sighting of "legacy-f0" is an archived record: the prefix
     probe must fault the archive in before it reads the name index *)
  let archived_glob = {|select F from Provenance.object as F where F.name ~ "legacy*"|} in
  let registry = Telemetry.create () in
  let disk, _ext3, lasagna, waldo =
    ckpt_rig ~registry ~compact_keep:1 ()
  in
  ignore (ckpt_workload ~alias:true lasagna waldo : Dpapi.handle array);
  verify "after ingestion" (Waldo.db waldo);
  (* a compacting checkpoint pushes old versions into the cold tier *)
  ok_fs (Waldo.checkpoint waldo);
  planner_matches_oracle "after checkpoint" (Waldo.db waldo);
  query_matches_oracle "archived alias glob after checkpoint" (Waldo.db waldo) archived_glob;
  verify "after checkpoint + archival" (Waldo.db waldo);
  (* crash and recover: the image deserializer rebuilds every index *)
  Disk.crash disk;
  Disk.revive disk;
  let ext3 = Ext3.mount disk in
  let w2, info =
    ok_fs (Waldo.recover ~registry ~compact_keep:1 ~lower:(Ext3.ops ext3) ())
  in
  check tbool "recovery saw archive segments" true (info.Waldo.ri_archives > 0);
  let db = Waldo.db w2 in
  check tbool "archive not yet loaded" false (Provdb.cold_loaded db);
  (match Pql.Engine.explain (Pql.Engine.prepare db archived_glob) with
  | { Pql_plan.steps = [ { access = Pql_plan.Name_prefix (_, "legacy"); _ } ]; _ } -> ()
  | plan -> Alcotest.failf "expected a name-prefix probe:\n%s" (Pql_plan.to_string plan));
  query_matches_oracle "archived alias glob after crash/recover" db archived_glob;
  (* the selective ancestry query crosses the floor: the planner's index
     probe must fault the cold tier in, exactly like the oracle's scan *)
  planner_matches_oracle "after crash/recover" db;
  verify "after crash/recover" db;
  (* explicit full fault-in is idempotent over the query's *)
  ok_fs (Waldo.fault_in_archive w2);
  verify "after archive fault-in" db

(* --- the hooks are free when no fault fires ---------------------------------- *)

let mini_run fault =
  let registry = Telemetry.create () in
  let clock = Clock.create () in
  let server =
    Server.create ~registry ~fault ~mode:Server.Pass_enabled ~clock ~machine:2 ~volume:"nfs0" ()
  in
  let net = Proto.net ~fault clock in
  let client =
    Client.create ~registry ~net ~handler:(Server.handle server)
      ~ctx:(Ctx.create ~machine:1) ~mount_name:"nfs0" ()
  in
  for i = 0 to 9 do
    let path = Printf.sprintf "/q%d" i in
    let ino = ok_fs (Vfs.create_path (Client.ops client) path Vfs.Regular) in
    let h = ok_fs (Client.file_handle client ino) in
    ignore
      (ok
         (Client.pass_write client h ~off:0 ~data:(Some path)
            [ Dpapi.entry h [ Record.name path ] ])
        : int)
  done;
  Clock.now clock

let test_quiet_plan_is_free () =
  let disabled = mini_run Fault.none in
  let quiet = mini_run (Fault.plan ~registry:(Telemetry.create ()) ~spec:Fault.quiet ~seed:5 ()) in
  check tint "an empty plan charges no simulated time" disabled quiet

let () =
  Alcotest.run "chaos"
    [
      ( "chaos",
        [
          Alcotest.test_case "postmark converges under every pinned seed" `Quick
            test_postmark_under_chaos;
          Alcotest.test_case "same seed, byte-identical schedule and counters" `Quick
            test_same_seed_identical;
          Alcotest.test_case "server spans parent onto client rpcs under chaos" `Quick
            test_wire_spans_under_chaos;
          Alcotest.test_case "fault storms trip pvmon's retry and backlog rules" `Quick
            test_pvmon_under_chaos;
          Alcotest.test_case "batching on/off leaves the provdb unchanged" `Quick
            test_batching_on_off_same_provdb;
          Alcotest.test_case "blast txns never double-apply" `Quick test_blast_no_double_apply;
          Alcotest.test_case "backpressure bounds the write-behind backlog" `Quick
            test_backpressure_bounds_backlog;
          Alcotest.test_case "transient disk errors are retried" `Quick
            test_transient_io_retried;
          Alcotest.test_case "latent corruption is reported, not raised" `Quick
            test_latent_corruption_reported;
          Alcotest.test_case "crash at every tick of a checkpoint recovers identically"
            `Quick test_crash_during_checkpoint_sweep;
          Alcotest.test_case "transactions straddle the checkpoint boundary exactly once"
            `Quick test_txn_across_checkpoint_boundary;
          Alcotest.test_case "indexes consistent across crash/recover and archive fault-in"
            `Quick test_indexes_consistent_after_crash_and_archive;
          Alcotest.test_case "an empty fault plan costs nothing" `Quick test_quiet_plan_is_free;
        ] );
    ]
