(* Telemetry tests: instrument semantics (counters, gauges, histograms,
   spans), the JSON snapshot encoder and its parser, an end-to-end check
   that a small simos workload populates the analyzer.* and wap.*
   instruments, and per-machine registry isolation. *)

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tfloat = Alcotest.float 1e-9

(* --- counters and gauges ----------------------------------------------------- *)

let test_counter_semantics () =
  let reg = Telemetry.create () in
  let c = Telemetry.counter ~registry:reg "t.c" in
  check tint "starts at zero" 0 (Telemetry.value c);
  Telemetry.incr c;
  Telemetry.add c 41;
  check tint "incr + add" 42 (Telemetry.value c);
  (* same name in the same registry aggregates at snapshot time *)
  let c2 = Telemetry.counter ~registry:reg "t.c" in
  Telemetry.add c2 8;
  check tint "instances stay independent" 42 (Telemetry.value c);
  check tint "snapshot sums same-named counters" 50
    (Option.get (Telemetry.counter_value reg "t.c"));
  (* a different registry is a different world *)
  let other = Telemetry.create () in
  check tbool "other registry empty" true
    (Telemetry.counter_value other "t.c" = None)

let test_gauge_semantics () =
  let reg = Telemetry.create () in
  let g = Telemetry.gauge ~registry:reg "t.g" in
  check tfloat "starts at zero" 0.0 (Telemetry.gauge_value g);
  Telemetry.set g 2.5;
  Telemetry.set g 7.25;
  check tfloat "set overwrites" 7.25 (Telemetry.gauge_value g)

(* --- histograms -------------------------------------------------------------- *)

let test_histogram_summary () =
  let reg = Telemetry.create () in
  let h = Telemetry.histogram ~registry:reg "t.h" in
  for i = 1 to 100 do
    Telemetry.observe h (float_of_int i)
  done;
  let s = Telemetry.summary h in
  check tint "count" 100 s.Telemetry.count;
  check tfloat "sum" 5050.0 s.Telemetry.sum;
  check tfloat "min" 1.0 s.Telemetry.min;
  check tfloat "max" 100.0 s.Telemetry.max;
  check tbool "p50 near median" true (abs_float (s.Telemetry.p50 -. 50.) <= 2.);
  check tbool "p95 near tail" true (abs_float (s.Telemetry.p95 -. 95.) <= 2.);
  check tbool "p99 in tail" true (s.Telemetry.p99 >= s.Telemetry.p95)

let test_histogram_compaction () =
  (* far more observations than the reservoir holds: exact count/sum/min/max
     must survive, and quantiles must stay representative *)
  let reg = Telemetry.create () in
  let h = Telemetry.histogram ~registry:reg "t.big" in
  let n = 50_000 in
  for i = 1 to n do
    Telemetry.observe h (float_of_int i)
  done;
  let s = Telemetry.summary h in
  check tint "exact count" n s.Telemetry.count;
  check tfloat "exact min" 1.0 s.Telemetry.min;
  check tfloat "exact max" (float_of_int n) s.Telemetry.max;
  let mid = float_of_int n /. 2. in
  check tbool "p50 within 10% of median" true
    (abs_float (s.Telemetry.p50 -. mid) <= 0.1 *. float_of_int n)

let test_with_span () =
  let reg = Telemetry.create () in
  let h = Telemetry.histogram ~registry:reg "t.span" in
  let clock = ref 0 in
  let now () = !clock in
  let r = Telemetry.with_span h ~now (fun () -> clock := !clock + 1234; "done") in
  check tbool "result passes through" true (String.equal r "done");
  let s = Telemetry.summary h in
  check tint "one observation" 1 s.Telemetry.count;
  check tfloat "observed elapsed ns" 1234.0 s.Telemetry.sum;
  (* exception-safe: the span is recorded even when f raises *)
  (try
     Telemetry.with_span h ~now (fun () -> clock := !clock + 10; failwith "boom")
   with Failure _ -> ());
  check tint "span recorded on raise" 2 (Telemetry.summary h).Telemetry.count

(* --- JSON -------------------------------------------------------------------- *)

let test_json_roundtrip () =
  let open Telemetry.Json in
  let doc =
    Obj
      [
        ("s", Str "a \"quoted\"\nstring");
        ("i", Int (-42));
        ("f", Float 2.5);
        ("b", Bool true);
        ("n", Null);
        ("l", List [ Int 1; Int 2; Obj [ ("x", Bool false) ] ]);
      ]
  in
  let doc' = of_string (to_string doc) in
  check tbool "round-trips" true (doc = doc');
  (match member "l" doc' with
  | Some (List (_ :: _ :: _)) -> ()
  | _ -> Alcotest.fail "member lookup");
  (* parser rejects garbage *)
  check tbool "parse error raised" true
    (try ignore (of_string "{\"a\":" : t) ; false
     with Telemetry.Json.Parse_error _ -> true)

let test_json_strictness () =
  let open Telemetry.Json in
  let rejects s =
    try
      ignore (of_string s : t);
      false
    with Parse_error _ -> true
  in
  (* of_string consumes the whole input: a valid document followed by
     trailing garbage is an error, not a silent prefix-parse *)
  check tbool "trailing garbage rejected" true (rejects "{} x");
  check tbool "two values rejected" true (rejects "1 2");
  check tbool "trailing comma-ish junk rejected" true (rejects "[1],");
  check tbool "surrounding whitespace fine" true (of_string " {\"a\":1} " = Obj [ ("a", Int 1) ])

let test_json_unicode_escapes () =
  let open Telemetry.Json in
  let rejects s =
    try
      ignore (of_string s : t);
      false
    with Parse_error _ -> true
  in
  check tbool "ascii escape" true (of_string {|"\u0041"|} = Str "A");
  check tbool "two-byte utf-8" true (of_string {|"\u00e9"|} = Str "\xc3\xa9");
  check tbool "three-byte utf-8" true (of_string {|"\u20ac"|} = Str "\xe2\x82\xac");
  check tbool "surrogate pair to four-byte utf-8" true
    (of_string {|"\ud83d\ude00"|} = Str "\xf0\x9f\x98\x80");
  check tbool "uppercase hex accepted" true (of_string {|"\u20AC"|} = Str "\xe2\x82\xac");
  check tbool "lone high surrogate rejected" true (rejects {|"\ud83d"|});
  check tbool "high surrogate without low rejected" true (rejects {|"\ud83dx"|});
  check tbool "lone low surrogate rejected" true (rejects {|"\ude00"|});
  check tbool "bad hex digit rejected" true (rejects {|"\u12zz"|});
  check tbool "truncated escape rejected" true (rejects {|"\u12"|})

let test_name_under () =
  let u prefix name = Telemetry.name_under ~prefix name in
  check tbool "empty prefix keeps everything" true (u "" "x.y");
  check tbool "exact name matches" true (u "analyzer" "analyzer");
  check tbool "dotted child matches" true (u "analyzer" "analyzer.records_in");
  check tbool "lexical prefix without dot is no match" false (u "analyzer" "analyzers.x");
  check tbool "multi-segment prefix" true (u "panfs.client" "panfs.client.rpc");
  check tbool "sibling segment is no match" false (u "panfs.client" "panfs.server.rpc");
  check tbool "prefix longer than name is no match" false (u "a.b.c" "a.b");
  (* the same predicate drives snapshot filtering *)
  let reg = Telemetry.create () in
  Telemetry.add (Telemetry.counter ~registry:reg "a.one") 1;
  Telemetry.add (Telemetry.counter ~registry:reg "ab.two") 2;
  let json = Telemetry.Json.of_string (Telemetry.to_json ~filter:"a" reg) in
  match Telemetry.Json.member "counters" json with
  | Some (Telemetry.Json.Obj [ ("a.one", Telemetry.Json.Int 1) ]) -> ()
  | _ -> Alcotest.fail "filtered snapshot kept the wrong instruments"

let test_validate_prefix () =
  let ok s = match Telemetry.validate_prefix s with Ok p -> String.equal p s | Error _ -> false in
  let rejected s = Result.is_error (Telemetry.validate_prefix s) in
  (* the empty prefix would make name_under match everything: refuse it at
     the CLI boundary instead of silently keeping the full snapshot *)
  check tbool "empty prefix rejected" true (rejected "");
  check tbool "single segment passes through" true (ok "analyzer");
  check tbool "dotted prefix passes through" true (ok "panfs.client");
  check tbool "leading dot rejected" true (rejected ".analyzer");
  check tbool "trailing dot rejected" true (rejected "analyzer.");
  check tbool "empty inner segment rejected" true (rejected "a..b")

let test_snapshot_shape () =
  let reg = Telemetry.create () in
  Telemetry.add (Telemetry.counter ~registry:reg "z.c") 3;
  Telemetry.set (Telemetry.gauge ~registry:reg "a.g") 1.5;
  Telemetry.observe (Telemetry.histogram ~registry:reg "m.h") 7.0;
  let json = Telemetry.Json.of_string (Telemetry.to_json reg) in
  let open Telemetry.Json in
  (match member "counters" json with
  | Some (Obj [ ("z.c", Int 3) ]) -> ()
  | _ -> Alcotest.fail "counters section");
  (match member "gauges" json with
  | Some (Obj [ ("a.g", Float f) ]) -> check tfloat "gauge value" 1.5 f
  | _ -> Alcotest.fail "gauges section");
  match member "histograms" json with
  | Some (Obj [ ("m.h", summary) ]) -> (
      match member "count" summary with
      | Some (Int 1) -> ()
      | _ -> Alcotest.fail "histogram summary count")
  | _ -> Alcotest.fail "histograms section"

(* --- series snapshot: pvmon's scrape surface --------------------------------- *)

let test_gauge_last_registered_wins () =
  (* regression pin: with two same-named gauge instruments in one
     registry the aggregate takes the LAST-registered instrument's value
     — not the max, not the sum — while the instance count still covers
     both.  Pvmon tags multi-instance gauges with exactly this rule, so
     a semantics change here must be a deliberate, reviewed one. *)
  let reg = Telemetry.create () in
  let g1 = Telemetry.gauge ~registry:reg "t.mg" in
  let g2 = Telemetry.gauge ~registry:reg "t.mg" in
  Telemetry.set g1 10.;
  Telemetry.set g2 3.;
  (match Telemetry.series_snapshot reg with
  | [ s ] ->
      check tfloat "last registered wins" 3.0 s.Telemetry.se_value;
      check tint "both instances counted" 2 s.Telemetry.se_instances
  | l -> Alcotest.failf "expected one series, got %d" (List.length l));
  (* updating the earlier instrument cannot shadow the later one *)
  Telemetry.set g1 99.;
  match Telemetry.series_snapshot reg with
  | [ s ] -> check tfloat "earlier instrument stays shadowed" 3.0 s.Telemetry.se_value
  | _ -> Alcotest.fail "series vanished"

let test_series_snapshot () =
  let reg = Telemetry.create () in
  Telemetry.add (Telemetry.counter ~registry:reg "z.c") 3;
  Telemetry.add (Telemetry.counter ~registry:reg "z.c") 4;
  Telemetry.set (Telemetry.gauge ~registry:reg "a.g") 1.5;
  Telemetry.observe (Telemetry.histogram ~registry:reg "m.h") 7.0;
  (match Telemetry.series_snapshot reg with
  | [ a; m; z ] ->
      check tbool "sorted by name" true
        (String.equal a.Telemetry.se_name "a.g"
        && String.equal m.Telemetry.se_name "m.h"
        && String.equal z.Telemetry.se_name "z.c");
      check tbool "kinds" true
        (a.Telemetry.se_kind = `Gauge && m.Telemetry.se_kind = `Histogram
       && z.Telemetry.se_kind = `Counter);
      check tfloat "counter instances sum" 7.0 z.Telemetry.se_value;
      check tint "counter instance count" 2 z.Telemetry.se_instances;
      check tfloat "gauge value" 1.5 a.Telemetry.se_value;
      (match m.Telemetry.se_summary with
      | Some s -> check tint "histogram summary attached" 1 s.Telemetry.count
      | None -> Alcotest.fail "histogram series without summary")
  | l -> Alcotest.failf "expected three series, got %d" (List.length l));
  match Telemetry.series_snapshot ~filter:"z" reg with
  | [ z ] -> check tbool "filter keeps the z subtree" true (String.equal z.Telemetry.se_name "z.c")
  | _ -> Alcotest.fail "filtered series"

(* The documented accuracy bound of telemetry.mli: with the reservoir
   over capacity, every reported quantile p must land between the exact
   quantiles at p-0.05 and p+0.05 of the full observation stream
   (normalized rank error <= 0.05).  The systematic 1-in-stride reservoir
   keeps this easily for non-adversarial streams; the pinned seed makes
   any failure replay byte-for-byte. *)
let prop_histogram_rank_error =
  let open QCheck2.Gen in
  let gen_stream =
    (* 3000..12000 observations: always past the 2048-sample reservoir *)
    list_size (int_range 3_000 12_000) (float_bound_exclusive 1e9)
  in
  QCheck2.Test.make ~name:"telemetry: histogram rank error within 0.05" ~count:20 gen_stream
    (fun xs ->
      let reg = Telemetry.create () in
      let h = Telemetry.histogram ~registry:reg "t.acc" in
      List.iter (Telemetry.observe h) xs;
      let s = Telemetry.summary h in
      let sorted = Array.of_list (List.sort Float.compare xs) in
      let n = Array.length sorted in
      (* the same nearest-rank convention summary uses on its reservoir *)
      let exact p =
        let idx = int_of_float ((p *. float_of_int (n - 1)) +. 0.5) in
        sorted.(Stdlib.min (n - 1) (Stdlib.max 0 idx))
      in
      let within p reported =
        reported >= exact (Float.max 0. (p -. 0.05))
        && reported <= exact (Float.min 1. (p +. 0.05))
      in
      s.Telemetry.count = n
      && s.Telemetry.min = sorted.(0)
      && s.Telemetry.max = sorted.(n - 1)
      && within 0.50 s.Telemetry.p50
      && within 0.95 s.Telemetry.p95
      && within 0.99 s.Telemetry.p99)

(* --- end to end through the pipeline ----------------------------------------- *)

let test_pipeline_instruments () =
  let registry = Telemetry.create () in
  let sys =
    System.create ~registry ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] ()
  in
  Kepler_wl.run sys ~parent:Kernel.init_pid;
  ignore (System.drain sys : int);
  check tbool "the machine reports into the registry it was given" true
    (System.telemetry sys == registry);
  let tv name = Option.get (Telemetry.counter_value registry name) in
  check tbool "analyzer did work" true (tv "analyzer.records_in" > 0);
  check tbool "wap logged frames" true (tv "wap.frames_written" > 0);
  check tbool "wap logged bytes" true (tv "wap.bytes_written" > 0);
  let aps = Option.get (Telemetry.histogram_summary registry "wap.append_ns") in
  check tbool "wap append span observed" true (aps.Telemetry.count > 0)

(* Without [~registry] every machine gets a fresh registry of its own:
   two machines built side by side each report exactly what a solo run
   reports, with nothing leaking between them. *)
let test_machine_registries_isolated () =
  let machine () = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] () in
  let run sys =
    Kepler_wl.run sys ~parent:Kernel.init_pid;
    ignore (System.drain sys : int)
  in
  let counters sys =
    Telemetry.Json.to_string
      (Option.get (Telemetry.Json.member "counters" (Telemetry.snapshot (System.telemetry sys))))
  in
  let solo = machine () in
  run solo;
  let a = machine () and b = machine () in
  check tbool "machines do not share a registry" false
    (System.telemetry a == System.telemetry b);
  run a;
  run b;
  check tbool "the solo run did work" true
    (Helpers.counter (System.telemetry solo) "analyzer.records_in" > 0);
  check Alcotest.string "first machine: solo counters" (counters solo) (counters a);
  check Alcotest.string "second machine: solo counters" (counters solo) (counters b);
  (* an instrument made without a registry is listed nowhere but counts *)
  let c = Telemetry.counter "t.unlisted" in
  Telemetry.add c 3;
  check tint "unregistered counter still counts" 3 (Telemetry.value c);
  check tbool "and no machine lists it" true
    (Telemetry.counter_value (System.telemetry a) "t.unlisted" = None)

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
    Alcotest.test_case "histogram summary" `Quick test_histogram_summary;
    Alcotest.test_case "histogram compaction" `Quick test_histogram_compaction;
    Alcotest.test_case "with_span" `Quick test_with_span;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json strictness" `Quick test_json_strictness;
    Alcotest.test_case "json unicode escapes" `Quick test_json_unicode_escapes;
    Alcotest.test_case "name_under filter" `Quick test_name_under;
    Alcotest.test_case "validate_prefix rejects empty filters" `Quick test_validate_prefix;
    Alcotest.test_case "snapshot shape" `Quick test_snapshot_shape;
    Alcotest.test_case "gauge last-registered-wins pin" `Quick
      test_gauge_last_registered_wins;
    Alcotest.test_case "series snapshot" `Quick test_series_snapshot;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0x5eed |])
      prop_histogram_rank_error;
    Alcotest.test_case "pipeline instruments" `Quick test_pipeline_instruments;
    Alcotest.test_case "machine registries isolated" `Quick test_machine_registries_isolated;
  ]
