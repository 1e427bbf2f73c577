(* Golden tests for the passarch layering analyzer and the shared lint
   machinery.  The fixture trees under test/fixtures/passarch are tiny
   three-layer stacks: [clean] obeys every contract, [violations] seeds
   exactly one violation per rule, [badmap] has an invalid layer map.
   The analyzer must report exactly the seeded findings — no more, no
   less — which pins both the rules and the module-graph reconstruction
   (dune boundaries, .mli contracts, call-graph fixpoint, hot-path BFS).

   The fixtures live in the source tree only (test/dune excludes them
   from dune's view, since they contain deliberate violations and fake
   dune files), so the tests walk up from the cwd to find them. *)

let check = Alcotest.check

module F = Lintcommon.Finding
module Allowlist = Lintcommon.Allowlist
module Json = Telemetry.Json

let fixture_dir sub =
  let rec up dir n =
    let cand = List.fold_left Filename.concat dir [ "test"; "fixtures"; sub ] in
    if Sys.file_exists cand then cand
    else if n = 0 then
      Alcotest.failf "fixture %s not found walking up from %s" sub
        (Sys.getcwd ())
    else up (Filename.dirname dir) (n - 1)
  in
  up (Sys.getcwd ()) 8

let shape f = (f.F.f_file, f.F.f_rule)

let pp_shapes fs =
  String.concat "; "
    (List.map (fun (file, rule) -> Printf.sprintf "%s [%s]" file rule) fs)

let check_shapes what expected got =
  check Alcotest.(list (pair string string)) what expected (List.map shape got)

(* --- passarch fixture trees ----------------------------------------- *)

let test_clean_tree () =
  let fs = Passarch_core.findings ~root:(fixture_dir "passarch/clean") () in
  check Alcotest.(list (pair string string))
    "clean fixture has no findings" [] (List.map shape fs)

let test_violations_tree () =
  let fs = Passarch_core.findings ~root:(fixture_dir "passarch/violations") () in
  let expected =
    [
      ("lib/high/hot_bad.ml", "hot-path-format");
      ("lib/high/hot_bad.ml", "hot-path-closure");
      ("lib/high/hot_bad.ml", "hot-path-write");
      ("lib/high/skip_bad.ml", "layer-undeclared");
      ("lib/low/up_bad.ml", "layer-upward");
      ("lib/mid/esc_bad.ml", "exception-escape");
      ("lib/mid/esc_bad.ml", "exception-escape");
      ("lib/stray/stray.ml", "layer-unmapped");
    ]
  in
  if List.map shape fs <> expected then
    Alcotest.failf "violation set mismatch:\nexpected %s\ngot      %s"
      (pp_shapes expected)
      (pp_shapes (List.map shape fs));
  (* the two escapes are the failwith and the undeclared pass-through *)
  let escapes =
    List.filter (fun f -> String.equal f.F.f_rule "exception-escape") fs
  in
  let mentions needle f =
    let hay = f.F.f_msg in
    let n = String.length needle and h = String.length hay in
    let rec go i =
      i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1))
    in
    go 0
  in
  check Alcotest.bool "one escape is the untyped Failure" true
    (List.exists (mentions "Failure") escapes);
  check Alcotest.bool "one escape is Low.Miss passing through mid" true
    (List.exists (mentions "Low.Miss") escapes);
  (* the hot-path findings name the reachability chain back to the root *)
  let hot = List.find (fun f -> String.equal f.F.f_rule "hot-path-format") fs in
  check Alcotest.bool "hot finding explains its path" true
    (mentions "extra_roots" hot)

let test_bad_map () =
  let fs = Passarch_core.findings ~root:(fixture_dir "passarch/badmap") () in
  check_shapes "invalid map is a single layer-map-error"
    [ ("LAYERS.sexp", "layer-map-error") ]
    fs

(* --- JSON shape ------------------------------------------------------ *)

let test_json_shape () =
  let fs = Passarch_core.findings ~root:(fixture_dir "passarch/violations") () in
  let doc = F.to_json ~schema:Passarch_core.schema ~files_scanned:8 fs in
  (* must round-trip through the wire form *)
  let doc = Json.of_string (Json.to_string doc) in
  (match Json.member "schema" doc with
  | Some (Json.Str s) -> check Alcotest.string "schema" "passarch/v1" s
  | _ -> Alcotest.fail "schema field missing");
  (match Json.member "files_scanned" doc with
  | Some (Json.Int n) -> check Alcotest.int "files_scanned" 8 n
  | _ -> Alcotest.fail "files_scanned field missing");
  match Json.member "findings" doc with
  | Some (Json.List items) ->
      check Alcotest.int "one JSON entry per finding" (List.length fs)
        (List.length items);
      List.iter
        (fun item ->
          List.iter
            (fun (field, is_ok) ->
              match Json.member field item with
              | Some v when is_ok v -> ()
              | _ -> Alcotest.failf "finding field %s missing or mistyped" field)
            [
              ("file", function Json.Str _ -> true | _ -> false);
              ("line", function Json.Int _ -> true | _ -> false);
              ("col", function Json.Int n -> n >= 0 | _ -> false);
              ("rule", function Json.Str _ -> true | _ -> false);
              ("msg", function Json.Str _ -> true | _ -> false);
            ])
        items
  | _ -> Alcotest.fail "findings field missing"

(* --- shared allowlist machinery -------------------------------------- *)

let test_allowlist_stale () =
  let entries =
    [
      Allowlist.
        {
          a_path = "lib/mid/";
          a_rule = "exception-escape";
          a_symbol = "";
          a_why = "test entry that matches";
        };
      Allowlist.
        {
          a_path = "lib/nowhere/";
          a_rule = "layer-upward";
          a_symbol = "";
          a_why = "test entry that matches nothing";
        };
    ]
  in
  let t = Allowlist.create entries in
  check Alcotest.bool "matching entry allows" true
    (Allowlist.allowed t ~file:"lib/mid/esc_bad.ml" ~rule:"exception-escape"
       ~symbol:"Esc_bad.boom");
  check Alcotest.bool "non-matching finding is not allowed" false
    (Allowlist.allowed t ~file:"lib/low/up_bad.ml" ~rule:"layer-upward"
       ~symbol:"High");
  let stale = Allowlist.stale t in
  check Alcotest.int "exactly the unused entry is stale" 1 (List.length stale);
  check Alcotest.string "stale entry is the nowhere one" "lib/nowhere/"
    (List.hd stale).Allowlist.a_path

let test_tree_gate () =
  (* what CI enforces, as a test: both analyzers must pass today's tree
     with --stale-allowlist, i.e. the tree is clean modulo the justified
     exemptions and no exemption is dead.  The repo root is found the
     same way as the fixtures. *)
  let root =
    Filename.dirname (Filename.dirname (Filename.dirname (fixture_dir "passarch")))
  in
  let saved = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () -> Sys.chdir saved)
    (fun () ->
      Sys.chdir root;
      check Alcotest.int "passarch gate exits 0" 0
        (Passarch_core.run ~json:true ~stale_check:true ());
      check Alcotest.int "passlint gate exits 0" 0
        (Passlint_core.run ~json:true ~stale_check:true ()))

(* --- passlint comment-stripping regression --------------------------- *)

let test_passlint_comment_regression () =
  let dir = fixture_dir "passlint" in
  let ok = Passlint_core.findings ~roots:[ Filename.concat dir "comment_ok.ml" ] () in
  check Alcotest.(list (pair string string))
    "pnode only inside comments does not trip pnode-poly-eq" []
    (List.map shape ok);
  let bad =
    Passlint_core.findings ~roots:[ Filename.concat dir "comment_bad.ml" ] ()
  in
  check Alcotest.(list string) "real pnode poly-eq still caught"
    [ "pnode-poly-eq" ]
    (List.map (fun f -> f.F.f_rule) bad)

(* --- passlint metric-name rule --------------------------------------- *)

let test_passlint_metric_name () =
  let dir = fixture_dir "passlint" in
  let ok = Passlint_core.findings ~roots:[ Filename.concat dir "metric_ok.ml" ] () in
  check Alcotest.(list (pair string string))
    "conventional pvmon names produce no findings" []
    (List.map shape ok);
  let bad =
    Passlint_core.findings ~roots:[ Filename.concat dir "metric_bad.ml" ] ()
  in
  check Alcotest.(list string)
    "bad rule name, bare source, uppercase source and camelCase span all caught"
    [ "metric-name"; "metric-name"; "metric-name"; "metric-name" ]
    (List.map (fun f -> f.F.f_rule) bad);
  check Alcotest.(list int) "findings point at the offending literals"
    [ 7; 11; 14; 17 ]
    (List.map (fun f -> f.F.f_line) bad)

let suite =
  [
    Alcotest.test_case "clean fixture tree" `Quick test_clean_tree;
    Alcotest.test_case "violations fixture tree" `Quick test_violations_tree;
    Alcotest.test_case "invalid layer map" `Quick test_bad_map;
    Alcotest.test_case "json shape" `Quick test_json_shape;
    Alcotest.test_case "allowlist stale detection" `Quick test_allowlist_stale;
    Alcotest.test_case "tree passes both lint gates" `Quick test_tree_gate;
    Alcotest.test_case "passlint comment regression" `Quick
      test_passlint_comment_regression;
    Alcotest.test_case "passlint metric-name rule" `Quick
      test_passlint_metric_name;
  ]
