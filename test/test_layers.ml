(* The deep-stack tests: the paper's §5.2 claim that the DPAPI enables an
   arbitrary number of layers.  We build the five-layer configuration the
   paper sketches — a provenance-aware Pyth application using a
   provenance-aware Pyth library, both executing on the (wrapped)
   interpreter, over PA-NFS, over PASSv2 at the server — and check that
   one query crosses all of it.  Plus the workload sanity checks. *)

let check = Alcotest.check
let tbool = Alcotest.bool

let test_five_layer_stack () =
  (* layer 5: PASSv2 at the NFS server; layer 4: PA-NFS; layers 3-1: the
     interpreter, the library, the application *)
  let sys, server = Runner.nfs_system System.Pass in
  let p = Process.spawn sys ~parent:Kernel.init_pid () in
  (* the provenance-aware library lives on the remote volume *)
  Process.write_file p "/vol0/lib/stats.py"
    {|def total(doc):
    import xml
    t = 0.0
    for r in xml.findall(doc, "r"):
        t = t + float(xml.attr(r, "v"))
    return t
def report(doc):
    return "total=" + str(total(doc))
|};
  Process.write_file p "/vol0/data/readings.xml" {|<log><r v="1.5"/><r v="2.5"/></log>|};
  let session = Pyth.create ~provenance:true ~module_dir:"/vol0/lib" p in
  (* note: the report string must come from a *wrapped* library function —
     a bare str() would launder the tag (the §6.5 lesson again) *)
  Pyth.run session
    {|import xml
import stats
d = xml.parse_file("/vol0/data/readings.xml")
writefile("/vol0/out/sum.txt", stats.report(d))
|};
  ignore (System.drain sys : int);
  ignore (Server.drain server : int);
  (* everything persisted at the *server* (the provenance traveled down
     all five layers and across the network) *)
  let db = Option.get (Server.db server) in
  check tbool "server db acyclic" true (Helpers.acyclic db);
  let fine =
    Helpers.pql_names db
      {|select A from Provenance.file as F, F.input as I, I.input* as A
        where F.name = "sum.txt" and I.type = "INVOCATION"|}
  in
  check tbool "app-layer chain reaches the xml file" true (List.mem "readings.xml" fine);
  check tbool "library function object present" true
    (List.exists (fun n -> n = "stats.report") fine);
  (* the library FILE itself is an ancestor (the function object links to
     the module file, which lives at the server) *)
  let lib_ancestor =
    Helpers.pql_names db
      {|select A from Provenance.file as F F.input* as A where F.name = "sum.txt"|}
  in
  check tbool "library file in full ancestry" true (List.mem "stats.py" lib_ancestor)

let test_workloads_generate_valid_provenance () =
  (* every Table 2 workload leaves an acyclic database behind *)
  let run_one (w : Runner.workload) =
    let sys = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] () in
    w.run sys;
    ignore (System.drain sys : int);
    let db = Option.get (System.waldo_db sys "vol0") in
    check tbool (w.wl_name ^ ": acyclic") true (Helpers.acyclic db);
    check tbool (w.wl_name ^ ": nonempty") true (Provdb.quad_count db > 0)
  in
  List.iter run_one (Runner.standard ~scale:0.3 ())

let test_workloads_deterministic () =
  let elapsed (w : Runner.workload) =
    let sys = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] () in
    w.run sys;
    System.elapsed_seconds sys
  in
  List.iter
    (fun w ->
      let a = elapsed w and b = elapsed w in
      check (Alcotest.float 1e-9) (w.Runner.wl_name ^ ": deterministic") a b)
    (Runner.standard ~scale:0.2 ())

let test_measured_overheads_positive () =
  let w = List.nth (Runner.standard ~scale:0.3 ()) 2 (* mercurial *) in
  let row = Runner.measure ~nfs:false w in
  check tbool "pass slower than ext3" true (row.Runner.pass_seconds > row.Runner.base_seconds);
  check tbool "overhead positive and sane" true
    (row.Runner.overhead_pct > 0. && row.Runner.overhead_pct < 100.);
  let sp = Option.get row.Runner.r_space in
  check tbool "provenance space positive" true (sp.Runner.prov_mb > 0.);
  check tbool "indexes add space" true (sp.Runner.total_mb > sp.Runner.prov_mb)

(* The batching oracle: observer bursts, Lasagna group commit and the
   PA-NFS client's piggyback change how provenance travels, never what
   the graph says.  Every standard workload must leave a byte-identical
   database with batching on and off: locally the vol0 Waldo db, over
   PA-NFS the server's. *)
let test_batching_on_off_same_graph () =
  let local ~batching (w : Runner.workload) =
    let sys = Runner.local_system ~batching System.Pass in
    w.run sys;
    ignore (System.drain sys : int);
    Option.get (System.waldo_db sys "vol0")
  in
  let nfs ~batching (w : Runner.workload) =
    let sys, server = Runner.nfs_system ~batching System.Pass in
    w.run sys;
    ignore (System.drain sys : int);
    ignore (Server.drain server : int);
    Option.get (Server.db server)
  in
  List.iter
    (fun (w : Runner.workload) ->
      List.iter
        (fun (where, db) ->
          let on = db ~batching:true w and off = db ~batching:false w in
          let what = Printf.sprintf "%s %s" w.wl_name where in
          check tbool (what ^ ": provenance recorded") true (Provdb.quad_count on > 0);
          check tbool (what ^ ": batching on/off byte-identical") true
            (String.equal (Provdb.serialize on) (Provdb.serialize off)))
        [ ("local", local); ("nfs", nfs) ])
    (Runner.standard ~scale:0.2 ())

(* Write-ahead provenance (§5.5) on the machines the harness builds,
   which take no checkpoint: every standard workload, locally and on the
   PA-NFS server, is drained, its disk crashes, and a Waldo restarted on
   the remounted volume rebuilds the live graph byte for byte from the
   WAP logs alone. *)
let test_workloads_survive_a_crash () =
  let local (w : Runner.workload) =
    let sys = Runner.local_system System.Pass in
    w.run sys;
    ignore (System.drain sys : int);
    let vol = Option.get (System.find_volume sys "vol0") in
    (vol.System.v_disk, Option.get (System.waldo_db sys "vol0"))
  in
  let nfs (w : Runner.workload) =
    let sys, server = Runner.nfs_system System.Pass in
    w.run sys;
    ignore (System.drain sys : int);
    ignore (Server.drain server : int);
    (Server.disk server, Option.get (Server.db server))
  in
  List.iter
    (fun (w : Runner.workload) ->
      List.iter
        (fun (where, machine) ->
          let what = Printf.sprintf "%s %s" w.wl_name where in
          let disk, live = machine w in
          Simdisk.Disk.crash disk;
          Simdisk.Disk.revive disk;
          let lower = Ext3.ops (Ext3.mount disk) in
          let waldo, _info = Helpers.ok_fs (Waldo.recover ~lower ()) in
          let db = Waldo.db waldo in
          check tbool (what ^ ": provenance recorded") true (Provdb.node_count live > 0);
          check tbool (what ^ ": recovered graph equals the live one") true
            (String.equal (Provdb.serialize live) (Provdb.serialize db));
          let report = Pvcheck.check_db db in
          if not (Pvcheck.clean report) then
            Alcotest.failf "%s: recovered graph:@ %a" what Pvcheck.pp_report report)
        [ ("local", local); ("nfs", nfs) ])
    (Runner.standard ~scale:0.1 ())

(* The command line names workloads by slug; the display name is not
   accepted, and the error lists the slugs. *)
let test_workload_slugs () =
  List.iter
    (fun (slug, name) ->
      match Runner.find slug with
      | Ok w -> check Alcotest.string slug name w.Runner.wl_name
      | Error msg -> Alcotest.failf "%s: %s" slug msg)
    [ ("linux-compile", "Linux Compile"); ("postmark", "Postmark");
      ("mercurial-activity", "Mercurial Activity"); ("blast", "Blast");
      ("pa-kepler", "PA-Kepler") ];
  List.iter
    (fun name ->
      match Runner.find name with
      | Ok _ -> Alcotest.failf "%S resolved" name
      | Error msg ->
          check Alcotest.string (name ^ ": error lists the slugs")
            (Printf.sprintf
               "unknown workload %S; try: linux-compile, postmark, mercurial-activity, blast, \
                pa-kepler"
               name)
            msg)
    [ "linux compile"; "mercurial"; "nope" ]

let test_compile_ancestry_depth () =
  (* after the compile workload, vmlinux's ancestry reaches the original
     sources through two link stages and the compile processes *)
  let sys = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] () in
  Linux_compile.run
    ~params:{ Linux_compile.default with dirs = 2; files_per_dir = 3 }
    sys ~parent:Kernel.init_pid;
  ignore (System.drain sys : int);
  let db = Option.get (System.waldo_db sys "vol0") in
  let names =
    Helpers.pql_names db
      {|select A from Provenance.file as V V.input* as A where V.name = "vmlinux"|}
  in
  check tbool "sources in vmlinux ancestry" true (List.mem "f0.c" names);
  check tbool "compiler binary in ancestry" true (List.mem "cc" names);
  check tbool "intermediate objects in ancestry" true (List.mem "built-in.o" names)

let suite =
  [
    Alcotest.test_case "five-layer stack (§5.2)" `Quick test_five_layer_stack;
    Alcotest.test_case "workloads leave valid provenance" `Slow
      test_workloads_generate_valid_provenance;
    Alcotest.test_case "workloads are deterministic" `Slow test_workloads_deterministic;
    Alcotest.test_case "measured overheads are sane" `Slow test_measured_overheads_positive;
    Alcotest.test_case "compile ancestry depth" `Quick test_compile_ancestry_depth;
    Alcotest.test_case "workloads resolve by slug" `Quick test_workload_slugs;
    Alcotest.test_case "workloads' provenance survives a crash" `Quick
      test_workloads_survive_a_crash;
    Alcotest.test_case "batching on/off leaves the graph unchanged" `Quick
      test_batching_on_off_same_graph;
  ]
