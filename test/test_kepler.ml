(* PA-Kepler tests (paper §6.2 and the §3.1 use case): workflow engine
   semantics, the three recorder backends, the Provenance Challenge
   workflow, and the anomaly-detection scenario where layering is what
   makes the cause findable. *)

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

let pass_system () = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] ()

let setup () =
  let sys = pass_system () in
  (sys, Process.spawn sys ~parent:Kernel.init_pid ())

let test_workflow_validation () =
  let a = Actor.file_source ~name:"src" ~path:"/vol0/in" in
  let b = Actor.file_sink ~name:"dst" ~path:"/vol0/out" in
  (match
     Workflow.create ~name:"bad" ~actors:[ a; b ]
       ~links:[ { Workflow.from_actor = "src"; from_port = "nope"; to_actor = "dst"; to_port = "in" } ]
   with
  | exception Workflow.Invalid _ -> ()
  | _ -> Alcotest.fail "bad port accepted");
  (match
     Workflow.create ~name:"bad2" ~actors:[ a; b ] ~links:[]
   with
  | exception Workflow.Invalid _ -> ()
  | _ -> Alcotest.fail "unconnected input accepted")

let test_schedule_is_topological () =
  let wf = Challenge.workflow ~input_dir:"/vol0/in" ~output_dir:"/vol0/out" in
  let order = List.map (fun (a : Actor.t) -> a.name) (Workflow.schedule wf) in
  let pos name =
    let rec go i = function
      | [] -> Alcotest.failf "%s not scheduled" name
      | x :: rest -> if String.equal x name then i else go (i + 1) rest
    in
    go 0 order
  in
  check tbool "align before reslice" true (pos "align_warp1" < pos "reslice1");
  check tbool "reslice before softmean" true (pos "reslice3" < pos "softmean");
  check tbool "softmean before slicers" true (pos "softmean" < pos "slicer_x");
  check tbool "convert before sink" true (pos "convert_z" < pos "store_z")

let run_challenge p recording =
  let io = Kepler_run.io p in
  Challenge.prepare_inputs ~input_dir:"/vol0/in" io;
  let wf = Challenge.workflow ~input_dir:"/vol0/in" ~output_dir:"/vol0/out" in
  Kepler_run.run ~recording p wf

let test_challenge_produces_outputs () =
  let _, p = setup () in
  let result = run_challenge p Kepler_run.No_recording in
  check tint "all 18 actors fired" 18 (List.length result.Director.fired);
  let io = Kepler_run.io p in
  List.iter
    (fun plane ->
      let out = io.Actor.read_file (Printf.sprintf "/vol0/out/atlas-%s.gif" plane) in
      check tbool ("atlas-" ^ plane ^ " nonempty") true (String.length out > 0))
    Challenge.planes

let test_outputs_deterministic_and_input_sensitive () =
  let run tweak =
    let _, p = setup () in
    let io = Kepler_run.io p in
    Challenge.prepare_inputs ~input_dir:"/vol0/in" ~tweak io;
    let wf = Challenge.workflow ~input_dir:"/vol0/in" ~output_dir:"/vol0/out" in
    ignore (Kepler_run.run ~recording:Kepler_run.No_recording p wf : Director.result);
    io.Actor.read_file "/vol0/out/atlas-x.gif"
  in
  check tbool "same inputs, same output" true (String.equal (run "") (run ""));
  check tbool "different inputs, different output" false (String.equal (run "") (run "mod"))

let test_text_recorder () =
  let _, p = setup () in
  ignore (run_challenge p (Kepler_run.Text_file "/vol0/kepler.log") : Director.result);
  let io = Kepler_run.io p in
  let log = io.Actor.read_file "/vol0/kepler.log" in
  check tbool "operators logged" true
    (String.length log > 0
    && List.exists
         (fun line -> String.length line >= 8 && String.sub line 0 8 = "OPERATOR")
         (String.split_on_char '\n' log))

let test_relational_recorder () =
  let _, p = setup () in
  let recorder, tables = Recorder.relational () in
  let io = Kepler_run.io p in
  Challenge.prepare_inputs ~input_dir:"/vol0/in" io;
  let wf = Challenge.workflow ~input_dir:"/vol0/in" ~output_dir:"/vol0/out" in
  ignore (Director.run ~recorder wf io : Director.result);
  check tint "18 operator rows" 18 (List.length tables.Recorder.operators);
  check tbool "transfer rows" true (List.length tables.Recorder.transfers >= 14);
  check tbool "file events" true (List.length tables.Recorder.file_events >= 11)

let test_dpapi_recorder_links_layers () =
  let sys, p = setup () in
  ignore (run_challenge p Kepler_run.Dpapi : Director.result);
  ignore (System.drain sys : int);
  let db = Option.get (System.waldo_db sys "vol0") in
  check tbool "db acyclic" true (Helpers.acyclic db);
  (* the paper's query: all ancestors of atlas-x.gif, crossing from the
     file through the workflow operators to the input files *)
  let names =
    Helpers.pql_names db
      {|select Ancestor
        from Provenance.file as Atlas
             Atlas.input* as Ancestor
        where Atlas.name = "atlas-x.gif"|}
  in
  check tbool "operator in ancestry" true (List.mem "softmean" names);
  check tbool "slicer in ancestry" true (List.mem "slicer_x" names);
  check tbool "input file in ancestry" true (List.mem "anatomy1.img" names);
  check tbool "reference in ancestry" true (List.mem "reference.img" names);
  (* operator objects carry PARAMS (Table 1) *)
  let rows =
    Helpers.pql_rows db {|select P.params from Provenance.object as P where P.name = "softmean"|}
  in
  check tint "softmean params visible" 1 (List.length rows)

let test_anomaly_scenario () =
  (* §3.1: run twice; between runs someone silently modifies anatomy2.img.
     Kepler's own provenance is identical across runs (same operators,
     same parameters); the integrated provenance shows the second atlas
     descends from a *newer version* of anatomy2.img. *)
  let sys, p = setup () in
  let io = Kepler_run.io p in
  Challenge.prepare_inputs ~input_dir:"/vol0/in" io;
  let wf = Challenge.workflow ~input_dir:"/vol0/in" ~output_dir:"/vol0/out" in
  ignore (Kepler_run.run p wf : Director.result);
  let first = io.Actor.read_file "/vol0/out/atlas-x.gif" in
  (* the colleague's silent modification, by another process *)
  let cio = Kepler_run.io (Process.spawn sys ~parent:Kernel.init_pid ()) in
  cio.Actor.write_file "/vol0/in/anatomy2.img" "anatomy-image-2-MODIFIED";
  ignore (Kepler_run.run p wf : Director.result);
  let second = io.Actor.read_file "/vol0/out/atlas-x.gif" in
  check tbool "outputs differ" false (String.equal first second);
  ignore (System.drain sys : int);
  let db = Option.get (System.waldo_db sys "vol0") in
  (* layered query: the modifying process is in the new atlas's ancestry *)
  let names =
    Helpers.pql_names db
      {|select A from Provenance.file as Atlas Atlas.input* as A
        where Atlas.name = "atlas-x.gif"|}
  in
  check tbool "modified input in ancestry" true (List.mem "anatomy2.img" names);
  (* and the file's version history shows the silent change *)
  let anatomy2 = List.hd (Provdb.find_by_name db "anatomy2.img") in
  check tbool "anatomy2 gained versions" true
    ((Option.get (Provdb.find_node db anatomy2)).Provdb.max_version >= 1)

let suite =
  [
    Alcotest.test_case "workflow validation" `Quick test_workflow_validation;
    Alcotest.test_case "schedule is topological" `Quick test_schedule_is_topological;
    Alcotest.test_case "challenge produces 3 atlases" `Quick test_challenge_produces_outputs;
    Alcotest.test_case "outputs deterministic + input-sensitive" `Quick
      test_outputs_deterministic_and_input_sensitive;
    Alcotest.test_case "text recorder backend" `Quick test_text_recorder;
    Alcotest.test_case "relational recorder backend" `Quick test_relational_recorder;
    Alcotest.test_case "DPAPI recorder links layers" `Quick test_dpapi_recorder_links_layers;
    Alcotest.test_case "anomaly scenario (§3.1)" `Quick test_anomaly_scenario;
  ]
