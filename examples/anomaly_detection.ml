(* Finding the source of anomalies (paper §3.1, Figure 1).

     dune exec examples/anomaly_detection.exe

   The exact scenario of the paper's running example: Kepler executes the
   Provenance Challenge workflow on a workstation, reading inputs from one
   NFS file server and writing outputs to another.  Between two runs a
   colleague silently modifies one input file on the remote server.  The
   second run's output differs — why?

   - Kepler's own provenance says the two runs were identical (same
     operators, same parameters): the change is invisible to it.
   - PASS alone shows a different input version but cannot relate it to
     the output through the workflow's internals.
   - The *layered* provenance answers the question. *)

let pql_names db q = Pql.names_of_rows db Pql.Engine.(execute (prepare db q))

let () =
  print_endline "== §3.1: finding the source of an anomaly ==\n";
  (* the Figure 1 topology: workstation + two PA-NFS servers *)
  let fig = Runner.figure1 () in
  let sys = fig.Runner.workstation and server_b = fig.Runner.server_b in
  print_endline "topology: workstation(local) + file server A (inputs) + file server B (outputs)";

  let engine = Process.spawn sys ~parent:Kernel.init_pid () in
  let io = Kepler_run.io engine in
  let wf = Challenge.workflow ~input_dir:"/nfsA/inputs" ~output_dir:"/nfsB/results" in

  (* Monday: the first run *)
  Challenge.prepare_inputs ~input_dir:"/nfsA/inputs" io;
  let monday = Kepler_run.run engine wf in
  let monday_atlas = io.Actor.read_file "/nfsB/results/atlas-x.gif" in
  Printf.printf "\nMonday:    workflow ran (%d operators fired), atlas-x.gif = %s\n"
    (List.length monday.Director.fired) monday_atlas;

  (* note Monday's atlas version for the later ancestry diff *)
  ignore (Server.drain server_b : int);
  let monday_version =
    let db = Option.get (Server.db server_b) in
    let atlas = List.hd (Provdb.find_by_name db "atlas-x.gif") in
    (Option.get (Provdb.find_node db atlas)).Provdb.max_version
  in

  (* Tuesday: unbeknownst to us, a colleague modifies one input remotely *)
  let cio = Kepler_run.io (Process.spawn sys ~parent:Kernel.init_pid ()) in
  cio.Actor.write_file "/nfsA/inputs/anatomy2.img" "anatomy-image-2-RESCANNED";
  print_endline "Tuesday:   a colleague silently replaces anatomy2.img on server A";

  (* Wednesday: the second run produces a different output *)
  let wednesday = Kepler_run.run engine wf in
  let wednesday_atlas = io.Actor.read_file "/nfsB/results/atlas-x.gif" in
  Printf.printf "Wednesday: workflow ran again (%d operators fired), atlas-x.gif = %s\n"
    (List.length wednesday.Director.fired) wednesday_atlas;
  Printf.printf "           outputs differ: %b\n" (not (String.equal monday_atlas wednesday_atlas));

  (* investigate *)
  let merged = Runner.figure1_merged fig in

  print_endline "\n-- WITHOUT layering --";
  Printf.printf
    "Kepler's view: both runs fired the same operators with the same parameters\n\
    \               (%s) — the runs look identical.\n"
    (String.concat ", " (List.filteri (fun i _ -> i < 4) monday.Director.fired) ^ ", ...");
  let b_only =
    pql_names
      (Option.get (Server.db server_b))
      {|select A from Provenance.file as F F.input* as A where F.name = "atlas-x.gif"|}
  in
  Printf.printf
    "Server B's view: atlas-x.gif has %d named ancestors, none of them on server A —\n\
    \                 it cannot see through the workflow engine.\n"
    (List.length b_only);

  print_endline "\n-- WITH layering (merged provenance of all three volumes) --";
  let ancestors =
    pql_names merged
      {|select Ancestor
        from Provenance.file as Atlas
             Atlas.input* as Ancestor
        where Atlas.name = "atlas-x.gif"|}
  in
  Printf.printf "full ancestry of atlas-x.gif (%d names): crosses the workflow into server A\n"
    (List.length ancestors);
  List.iter (fun n -> Printf.printf "   %s\n" n) ancestors;
  (* the smoking gun: anatomy2.img has more than one version, and the new
     atlas descends from the newer version *)
  let anatomy2 = List.hd (Provdb.find_by_name merged "anatomy2.img") in
  let versions = (Option.get (Provdb.find_node merged anatomy2)).Provdb.max_version in
  Printf.printf
    "\nanatomy2.img has %d versions in the provenance store; Wednesday's atlas descends\n\
     from the newer one — the silent modification is the cause of the anomaly.\n"
    (versions + 1);
  (* the paper's opening question, answered mechanically: how does the
     ancestry of Monday's atlas differ from Wednesday's? *)
  let atlas = List.hd (Provdb.find_by_name merged "atlas-x.gif") in
  let latest = (Option.get (Provdb.find_node merged atlas)).Provdb.max_version in
  print_endline "\nancestry diff, files only (Monday's atlas vs Wednesday's):";
  let d = Provdiff.diff_versions merged atlas ~version_a:monday_version ~version_b:latest in
  Format.printf "%a@." Provdiff.pp (Provdiff.files_only merged d);
  print_endline "the diff points straight at anatomy2.img's version change — case closed."
