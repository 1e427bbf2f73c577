(* The PA-Kepler workload (Table 2, row 5): a workflow that parses tabular
   data, extracts values, and reformats them with a user-specified
   expression.  When its volume is a PA-NFS mount this is the paper's
   full three-layer integration (workflow engine over PASS over NFS,
   the Figure 1 situation).  CPU-bound: the paper measures 1.4% / 2.5%
   overhead. *)

type params = { rows : int; runs : int; parse_cpu_ms : int }

let default = { rows = 400; runs = 3; parse_cpu_ms = 120 }

let table_path = "/vol0/kepler/table.csv"
let out_path run = Printf.sprintf "/vol0/kepler/reformatted%d.csv" run

let make_table params =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "id,specimen,stress,heating\n";
  for i = 1 to params.rows do
    Buffer.add_string buf
      (Printf.sprintf "%d,spec%d,%d.%d,%d.%02d\n" i (i mod 60) (i mod 9) (i mod 10)
         (i mod 17) (i mod 100))
  done;
  Buffer.contents buf

let workflow params run =
  let parse =
    Actor.make ~name:"parse_table" ~params:[ ("delimiter", ",") ] ~inputs:[] ~outputs:[ "rows" ]
      (fun io _ ->
        let data = io.Actor.read_file table_path in
        io.Actor.cpu (params.parse_cpu_ms * 1_000_000);
        [ ("rows", Actor.token ~origin:"parse_table" data) ])
  in
  let extract =
    Actor.transform ~name:"extract_values"
      ~params:[ ("columns", "stress,heating") ]
      ~cpu_ns:(params.parse_cpu_ms * 400_000)
      (fun rows ->
        String.split_on_char '\n' rows
        |> List.filter_map (fun line ->
               match String.split_on_char ',' line with
               | [ _; _; stress; heating ] -> Some (stress ^ " " ^ heating)
               | _ -> None)
        |> String.concat "\n")
  in
  let reformat =
    Actor.transform ~name:"reformat"
      ~params:[ ("expression", "heating / stress") ]
      ~cpu_ns:(params.parse_cpu_ms * 400_000)
      (fun values ->
        String.split_on_char '\n' values
        |> List.map (fun line -> "= " ^ line)
        |> String.concat "\n")
  in
  let sink = Actor.file_sink ~name:"write_output" ~path:(out_path run) in
  Workflow.create ~name:(Printf.sprintf "tabular-reformat-%d" run)
    ~actors:[ parse; extract; reformat; sink ]
    ~links:
      [
        { Workflow.from_actor = "parse_table"; from_port = "rows"; to_actor = "extract_values";
          to_port = "in" };
        { Workflow.from_actor = "extract_values"; from_port = "out"; to_actor = "reformat";
          to_port = "in" };
        { Workflow.from_actor = "reformat"; from_port = "out"; to_actor = "write_output";
          to_port = "in" };
      ]

let run ?(params = default) sys ~parent =
  let setup = Process.spawn sys ~parent () in
  Process.write_file setup table_path (make_table params);
  Process.exit setup;
  for r = 1 to params.runs do
    let engine = Process.spawn sys ~parent () in
    ignore (Kepler_run.run engine (workflow params r) : Director.result);
    Process.exit engine
  done
