(* perfbench: the repository benchmark's measuring program.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   [--trace-out FILE]

   Prints a report, then one JSON line: correct, attempted, failed and
   the metrics (end-to-end with --trace 0, per-layer with --trace 1).
   Exits 1 when an output check fails.  bench/perf/run.py builds this
   and adds the peak resident memory it reads from outside. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let trace_out = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Pb_bench.workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
      ("--trace-out", Arg.Set_string trace_out, " write the traced spans (Chrome JSON)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Pb_bench.workloads) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " Pb_bench.workloads);
    exit 2
  end;
  let r =
    Pb_bench.run
      ?trace_file:(if String.equal !trace_out "" then None else Some !trace_out)
      ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ()
  in
  Printf.printf "perfbench %s seed %d (%s)\n" !workload !seed
    (if !trace = 1 then "traced" else "untraced");
  List.iter print_endline r.notes;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-38s %14.6g %s\n" name v unit) r.metrics;
  print_endline (Pb_bench.to_json r);
  exit (if r.correct then 0 else 1)
