(* Self-tests of the benchmark: the self-time fold, the percentile
   helper, and a tiny run of every workload in both modes. *)

let check = Alcotest.check

(* Spans from a real tracer on a hand-driven clock:
     bench.op [0,100) > simos.read [10,90) > ext3.read [20,50), ext3.read [60,70)
   so self times are bench 20, simos 40, ext3 40. *)
let test_fold_exact () =
  let clock = ref 0 in
  let tr = Pvtrace.create ~now:(fun () -> !clock) () in
  let f = Pb_stats.fold () in
  Pvtrace.on_record tr (Pb_stats.add_span f);
  let at t = clock := t in
  Pvtrace.span tr ~layer:"bench" ~op:"op" (fun () ->
      at 10;
      Pvtrace.span tr ~layer:"simos" ~op:"read" (fun () ->
          at 20;
          Pvtrace.span tr ~layer:"ext3" ~op:"read" (fun () -> at 50);
          at 60;
          Pvtrace.span tr ~layer:"ext3" ~op:"read" (fun () -> at 70);
          at 90);
      at 100);
  let self name = (Hashtbl.find f.layers name).Pb_stats.self_ns in
  check Alcotest.int "bench self" 20 (self "bench");
  check Alcotest.int "simos self" 40 (self "simos");
  check Alcotest.int "ext3 self" 40 (self "ext3");
  check Alcotest.int "ext3 calls" 2 (Hashtbl.find f.layers "ext3").calls;
  check Alcotest.int "root time" 100 f.root_ns;
  check Alcotest.bool "conserved" true (Pb_stats.conserved f)

(* A child whose parent never arrives breaks conservation. *)
let test_fold_open_parent () =
  let f = Pb_stats.fold () in
  Pb_stats.add f ~id:2 ~parent:1 ~layer:"ext3" ~dur:5;
  check Alcotest.bool "not conserved" false (Pb_stats.conserved f);
  Pb_stats.add f ~id:1 ~parent:0 ~layer:"bench" ~dur:8;
  check Alcotest.bool "conserved once the parent completes" true (Pb_stats.conserved f);
  check Alcotest.int "bench self" 3 (Hashtbl.find f.layers "bench").self_ns

let test_percentile () =
  let xs = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  let p99 = Pb_stats.percentile xs 99. in
  check Alcotest.int "samples" 1000 p99.samples;
  check Alcotest.int "beyond" 10 p99.beyond;
  check (Alcotest.float 0.) "value" 990. p99.value;
  let p50 = Pb_stats.percentile xs 50. in
  check (Alcotest.float 0.) "median" 500. p50.value;
  check Alcotest.int "empty sample" 0 (Pb_stats.percentile [||] 99.).samples

let names ms = List.map (fun (n, _, u) -> (n, u)) ms

let smoke workload trace () =
  let r = Pb_bench.run ~smoke:true ~workload ~seed:7 ~seconds:0 ~trace () in
  List.iter print_endline r.notes;
  check Alcotest.bool "correct" true r.correct;
  check Alcotest.int "failed" 0 r.failed;
  check
    Alcotest.(list (pair string string))
    "every named metric, with its unit"
    (if trace then Pb_bench.per_layer else Pb_bench.end_to_end)
    (names r.metrics);
  List.iter
    (fun (n, v, _) -> if Float.is_nan v then Alcotest.failf "%s is NaN" n)
    r.metrics

(* Different seeds give different op streams, and the same metric names. *)
let test_seeds_differ () =
  let sim seed =
    let r = Pb_bench.run ~smoke:true ~workload:"mailstore_local" ~seed ~seconds:0 ~trace:false () in
    let _, v, _ = List.find (fun (n, _, _) -> String.equal n "sim_ms") r.metrics in
    (v, names r.metrics)
  in
  let a, na = sim 1 and b, nb = sim 2 in
  check Alcotest.bool "simulated time differs" true (not (Float.equal a b));
  check Alcotest.(list (pair string string)) "same names" na nb

let () =
  Alcotest.run "perfbench"
    [ ("stats",
       [ Alcotest.test_case "self-time fold is exact" `Quick test_fold_exact;
         Alcotest.test_case "fold needs every parent" `Quick test_fold_open_parent;
         Alcotest.test_case "percentile reports its sample" `Quick test_percentile ]);
      ("smoke",
       List.concat_map
         (fun w ->
           [ Alcotest.test_case (w ^ " untraced") `Quick (smoke w false);
             Alcotest.test_case (w ^ " traced") `Quick (smoke w true) ])
         Pb_bench.workloads
       @ [ Alcotest.test_case "seeds change the op stream" `Quick test_seeds_differ ]) ]
