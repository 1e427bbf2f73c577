(* benchdiff: the CI perf-regression gate.

   Compares the overhead_pct of every workload in a BENCH_results.json
   run against the checked-in BENCH_baseline.json and exits non-zero if
   any overhead regressed beyond tolerance.  Only regressions fail:
   improvements are reported (with a nudge to refresh the baseline when
   they are large) but never block.

     benchdiff BENCH_baseline.json BENCH_results.json
     benchdiff --tolerance 10 --slack 1.5 baseline.json current.json

   A row regresses when BOTH hold:
     current > baseline * (1 + tolerance/100)   (relative: default 20%)
     current > baseline + slack                 (absolute percentage
                                                 points: default 2.0)
   The absolute floor keeps near-zero overheads (Blast at ~1.5%) from
   tripping the relative gate on simulation noise.

   The baseline stores overheads per scale ("0.1" for the CI smoke run,
   "1.0" for the full run); the current file's "scale" field selects
   which column to compare.  Defaults for tolerance/slack come from the
   baseline file itself so the policy is versioned with the numbers. *)

module Json = Telemetry.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("benchdiff: " ^ s); exit 2) fmt

let read_json path =
  let ic = try open_in_bin path with Sys_error e -> die "%s" e in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  try Json.of_string s with Json.Parse_error e -> die "%s: %s" path e

let number = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let get_number path j = Option.bind (Json.member path j) number

(* --- the current run: BENCH_results.json (pass-bench/v1) ------------------- *)

type row = { name : string; local_pct : float; nfs_pct : float }

let parse_current path j =
  (match Json.member "schema" j with
  | Some (Json.Str "pass-bench/v1") -> ()
  | _ -> die "%s: not a pass-bench/v1 results file" path);
  let scale =
    match get_number "scale" j with Some s -> s | None -> die "%s: no scale" path
  in
  let rows =
    match Json.member "workloads" j with
    | Some (Json.List ws) ->
        List.map
          (fun w ->
            let name =
              match Json.member "name" w with
              | Some (Json.Str s) -> s
              | _ -> die "%s: workload without a name" path
            in
            let side key =
              match Option.bind (Json.member key w) (get_number "overhead_pct") with
              | Some f -> f
              | None -> die "%s: %s: no %s.overhead_pct" path name key
            in
            { name; local_pct = side "local"; nfs_pct = side "nfs" })
          ws
    | _ -> die "%s: no workloads" path
  in
  (scale, rows)

(* --- the baseline: BENCH_baseline.json (pass-bench-baseline/v1) ------------ *)

let parse_baseline path j =
  (match Json.member "schema" j with
  | Some (Json.Str "pass-bench-baseline/v1") -> ()
  | _ -> die "%s: not a pass-bench-baseline/v1 file" path);
  let scales =
    match Json.member "scales" j with
    | Some (Json.Obj kvs) -> kvs
    | _ -> die "%s: no scales" path
  in
  (get_number "tolerance_pct" j, get_number "slack_points" j, scales)

let baseline_for_scale path scales scale =
  (* scale keys are written by humans: match numerically, not textually *)
  match
    List.find_opt
      (fun (k, _) -> match float_of_string_opt k with
        | Some f -> Float.abs (f -. scale) < 1e-9
        | None -> false)
      scales
  with
  | Some (_, Json.Obj workloads) -> workloads
  | Some _ -> die "%s: scale entry is not an object" path
  | None ->
      die "%s: no baseline for scale %g (have: %s)" path scale
        (String.concat ", " (List.map fst scales))

(* --- comparison -------------------------------------------------------------- *)

type verdict = Ok_ | Improved | Regressed | New

let compare_row ~tolerance ~slack ~baseline (r : row) =
  let one side current =
    match Option.bind (List.assoc_opt r.name baseline) (get_number side) with
    | None -> (New, current, nan)
    | Some base ->
        let v =
          if current > (base *. (1. +. (tolerance /. 100.))) && current > base +. slack then
            Regressed
          else if current < (base *. (1. -. (tolerance /. 100.))) && current < base -. slack
          then Improved
          else Ok_
        in
        (v, current, base)
  in
  [ ("local", one "local_overhead_pct" r.local_pct);
    ("nfs", one "nfs_overhead_pct" r.nfs_pct) ]

let () =
  let tolerance_arg = ref None and slack_arg = ref None and files = ref [] in
  let spec =
    [ ("--tolerance", Arg.Float (fun f -> tolerance_arg := Some f),
       "PCT relative tolerance in percent (default: baseline file, else 20)");
      ("--slack", Arg.Float (fun f -> slack_arg := Some f),
       "POINTS absolute tolerance in overhead points (default: baseline file, else 2)") ]
  in
  let usage = "benchdiff [--tolerance PCT] [--slack POINTS] BASELINE CURRENT" in
  Arg.parse spec (fun f -> files := f :: !files) usage;
  let baseline_path, current_path =
    match List.rev !files with
    | [ b; c ] -> (b, c)
    | _ -> die "expected exactly two files\nusage: %s" usage
  in
  let file_tol, file_slack, scales = parse_baseline baseline_path (read_json baseline_path) in
  let current_json = read_json current_path in
  let scale, rows = parse_current current_path current_json in
  let tolerance =
    match (!tolerance_arg, file_tol) with Some t, _ -> t | None, Some t -> t | None, None -> 20.
  in
  let slack =
    match (!slack_arg, file_slack) with Some s, _ -> s | None, Some s -> s | None, None -> 2.
  in
  let baseline = baseline_for_scale baseline_path scales scale in
  Printf.printf "benchdiff: scale %g, tolerance %g%%, slack %g points\n" scale tolerance slack;
  Printf.printf "%-20s %-6s %10s %10s %8s  %s\n" "workload" "side" "baseline" "current" "delta"
    "verdict";
  let regressed = ref 0 and improved = ref 0 in
  List.iter
    (fun r ->
      List.iter
        (fun (side, (v, current, base)) ->
          let verdict, note =
            match v with
            | Regressed ->
                incr regressed;
                ("REGRESSED", " <-- past tolerance")
            | Improved ->
                incr improved;
                ("improved", "")
            | Ok_ -> ("ok", "")
            | New -> ("new", " (no baseline entry)")
          in
          if Float.is_nan base then
            Printf.printf "%-20s %-6s %10s %9.2f%% %8s  %s%s\n" r.name side "-" current "-"
              verdict note
          else
            Printf.printf "%-20s %-6s %9.2f%% %9.2f%% %+7.2f%%  %s%s\n" r.name side base current
              (current -. base) verdict note)
        (compare_row ~tolerance ~slack ~baseline r))
    rows;
  (* Recovery-time gate: bounded restart means the checkpointed replay
     suffix must not grow; compare its frame count against the baseline.
     Skipped (reported as "new") when the baseline predates the bench's
     recovery section, so old baselines keep working. *)
  (match List.assoc_opt "recovery" baseline with
  | None ->
      Printf.printf "%-20s %-6s %10s %10s %8s  new (no baseline entry)\n" "recovery"
        "replay" "-" "-" "-"
  | Some rb -> (
      let base =
        match get_number "replay_frames_max" rb with
        | Some b -> b
        | None -> die "%s: recovery entry without replay_frames_max" baseline_path
      in
      match
        Option.bind (Json.member "recovery" current_json)
          (get_number "replay_frames_max")
      with
      | None -> die "%s: no recovery.replay_frames_max (old bench binary?)" current_path
      | Some current ->
          (* a frame of slack per tolerance point on top of the relative
             gate: suffix lengths are small integers, so a purely relative
             bound would trip on a single extra log tail *)
          let regression =
            current > base *. (1. +. (tolerance /. 100.)) && current > base +. 16.
          in
          let verdict, note =
            if regression then begin
              incr regressed;
              ("REGRESSED", " <-- past tolerance")
            end
            else if current < base then ("improved", "")
            else ("ok", "")
          in
          Printf.printf "%-20s %-6s %10.0f %10.0f %+8.0f  %s%s\n" "recovery" "replay"
            base current (current -. base) verdict note));
  (* Monitor-overhead gate: an enabled pvmon must keep charging zero
     simulated time to the monitored workloads.  The bench computes
     overhead_pct from the off/on simulated clocks; the baseline pins
     its ceiling (0.0 — scrapes happen outside simulated time by
     construction), with half a point of absolute slack so the gate
     states intent rather than float noise.  "new" when the baseline
     predates the bench's monitor section, so old baselines keep
     working. *)
  (match List.assoc_opt "monitor" baseline with
  | None ->
      Printf.printf "%-20s %-6s %10s %10s %8s  new (no baseline entry)\n" "monitor"
        "ovrhd" "-" "-" "-"
  | Some mb -> (
      let ceiling =
        match get_number "overhead_pct_max" mb with
        | Some b -> b
        | None -> die "%s: monitor entry without overhead_pct_max" baseline_path
      in
      match
        Option.bind (Json.member "monitor" current_json) (get_number "overhead_pct")
      with
      | None -> die "%s: no monitor.overhead_pct (old bench binary?)" current_path
      | Some current ->
          let regression = current > ceiling +. 0.5 in
          let verdict, note =
            if regression then begin
              incr regressed;
              ("REGRESSED", " <-- above pinned ceiling")
            end
            else ("ok", "")
          in
          Printf.printf "%-20s %-6s %9.2f%% %9.2f%% %+7.2f%%  %s%s\n" "monitor" "ovrhd"
            ceiling current (current -. ceiling) verdict note));
  (* Query-planner gates: the selective-ancestry, prefix-glob and
     fan-out speedups over the naive evaluator must stay above their
     pinned floors (higher is better, so only a drop fails; the relative
     tolerance gives timer noise room).  A query entry must pin all three
     floors.  "new" when the baseline predates the bench's query
     section, so old baselines keep working. *)
  (match List.assoc_opt "query" baseline with
  | None ->
      Printf.printf "%-20s %-6s %10s %10s %8s  new (no baseline entry)\n" "query" "speedup"
        "-" "-" "-"
  | Some qb ->
      List.iter
        (fun (label, key) ->
          let floor =
            match get_number (key ^ "_min") qb with
            | Some b -> b
            | None -> die "%s: query entry without %s_min" baseline_path key
          in
          match Option.bind (Json.member "query" current_json) (get_number key) with
          | None -> die "%s: no query.%s (old bench binary?)" current_path key
          | Some current ->
              let regression = current < floor *. (1. -. (tolerance /. 100.)) in
              let verdict, note =
                if regression then begin
                  incr regressed;
                  ("REGRESSED", " <-- below pinned floor")
                end
                else ("ok", "")
              in
              Printf.printf "%-20s %-6s %9.1fx %9.1fx %+7.1fx  %s%s\n" label "speedup" floor
                current (current -. floor) verdict note)
        [
          ("query", "selective_speedup");
          ("query prefix-glob", "prefix_glob_speedup");
          ("query fan-out", "fanout_speedup");
        ]);
  if !regressed > 0 then begin
    Printf.printf "\n%d overhead value(s) regressed beyond tolerance.\n" !regressed;
    exit 1
  end;
  if !improved > 0 then
    Printf.printf
      "\n%d overhead value(s) improved beyond tolerance — consider refreshing BENCH_baseline.json.\n"
      !improved;
  print_string "benchdiff: no regressions.\n"
