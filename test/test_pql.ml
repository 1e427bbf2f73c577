(* PQL tests: lexer/parser behaviour, evaluator semantics on a hand-built
   provenance graph, the paper's sample query, subqueries, aggregation,
   inverse edges, and glob matching. *)

open Pass_core

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tstrs = Alcotest.(list string)

(* Hand-build the database for a tiny rendition of the Figure 1 scenario:

     input1.dat --\
                   kepler(process) --> out.gif
     input2.dat --/
     out.gif also has an older version linked by a freeze edge. *)
let sample_db () =
  let db = Provdb.create () in
  let alloc = Pnode.allocator ~machine:1 in
  let p () = Pnode.fresh alloc in
  let in1 = p () and in2 = p () and proc = p () and out = p () and unrelated = p () in
  Provdb.set_file db in1 ~name:"input1.dat";
  Provdb.set_file db in2 ~name:"input2.dat";
  Provdb.set_file db out ~name:"out.gif";
  Provdb.set_file db unrelated ~name:"bystander.txt";
  Provdb.declare_virtual db proc;
  Provdb.add_record db proc ~version:0 (Record.typ "PROCESS");
  Provdb.add_record db proc ~version:0 (Record.name "kepler");
  Provdb.add_record db proc ~version:0
    (Record.make Record.Attr.argv (Pvalue.Strs [ "kepler"; "wf.xml" ]));
  Provdb.add_record db proc ~version:0 (Record.input_of in1 0);
  Provdb.add_record db proc ~version:0 (Record.input_of in2 0);
  (* out v0 written by proc, then frozen to v1 *)
  Provdb.add_record db out ~version:0 (Record.input_of proc 0);
  Provdb.add_record db out ~version:1 (Record.make Record.Attr.freeze (Pvalue.Int 1));
  Provdb.add_record db out ~version:1 (Record.input_of out 0);
  (db, in1, in2, proc, out, unrelated)

(* --- parser --------------------------------------------------------------- *)

let test_parse_paper_query () =
  let q =
    Pql.parse
      {|select Ancestor
        from Provenance.file as Atlas
             Atlas.input* as Ancestor
        where Atlas.name = "atlas-x.gif"|}
  in
  check tint "two sources" 2 (List.length q.froms);
  check tint "one output" 1 (List.length q.select);
  check tbool "has where" true (q.where <> None)

let test_parse_operators () =
  let q = Pql.parse "select X from Provenance.object.(input|^input)+.name? as X" in
  match (List.hd q.froms).path with
  | Some (Pql_ast.Seq (Pql_ast.Plus (Pql_ast.Alt _), Pql_ast.Opt _)) -> ()
  | _ -> Alcotest.fail "unexpected path structure"

let test_parse_errors () =
  let bad s =
    match Pql.parse s with
    | exception Pql.Error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  bad "select";
  bad "select X from";
  bad "select X from Provenance.nosuchclass as X";
  bad "select X from Provenance.file as X where";
  bad "select X from Provenance.file as X trailing";
  bad "select X from Provenance.file X" (* missing `as` *)

let test_lexer_comments_and_strings () =
  let toks = Pql_lexer.tokenize "select -- comment\n 'single' \"dou\\\"ble\"" in
  check tint "tokens" 4 (List.length toks) (* select, 2 strings, EOF *)

(* --- evaluator ------------------------------------------------------------ *)

let test_paper_query_semantics () =
  let db, _in1, _in2, _proc, _out, _unrelated = sample_db () in
  let names =
    Helpers.pql_names db
      {|select Ancestor
        from Provenance.file as Atlas
             Atlas.input* as Ancestor
        where Atlas.name = "out.gif"|}
  in
  (* input* is reflexive: includes out.gif itself, the process, both inputs *)
  check tstrs "full ancestry"
    [ "input1.dat"; "input2.dat"; "kepler"; "out.gif" ]
    names

let test_plus_excludes_self () =
  let db, _, _, _, _, _ = sample_db () in
  let names =
    Helpers.pql_names db
      {|select A from Provenance.file as F F.input+ as A where F.name = "out.gif"|}
  in
  (* input+ starts with one step: v1 -> v0 of out.gif is still out.gif,
     so out.gif remains via its older version; kepler and inputs appear *)
  check tbool "kepler reached" true (List.mem "kepler" names);
  check tbool "inputs reached" true (List.mem "input1.dat" names)

let test_single_step () =
  let db, _, _, _, _, _ = sample_db () in
  let names =
    Helpers.pql_names db {|select A from Provenance.file as F F.input as A where F.name = "out.gif"|}
  in
  (* one step from out.gif v1 reaches only out.gif v0 (the version edge) *)
  check tstrs "one step = version edge" [ "out.gif" ] names

let test_inverse_edges () =
  let db, _, _, _, _, _ = sample_db () in
  let names =
    Helpers.pql_names db
      {|select D from Provenance.file as F F.^input as D where F.name = "input1.dat"|}
  in
  check tstrs "descendant via inverse" [ "kepler" ] names

let test_inverse_closure_descendants () =
  let db, _, _, _, _, _ = sample_db () in
  let names =
    Helpers.pql_names db
      {|select D from Provenance.file as F F.^input+ as D where F.name = "input1.dat"|}
  in
  check tbool "out.gif descends from input1" true (List.mem "out.gif" names)

let test_where_filters () =
  let db, _, _, _, _, _ = sample_db () in
  let names =
    Helpers.pql_names db {|select F from Provenance.file as F where F.name ~ "input*"|}
  in
  check tstrs "glob filter" [ "input1.dat"; "input2.dat" ] names

let test_where_and_or_not () =
  let db, _, _, _, _, _ = sample_db () in
  let names =
    Helpers.pql_names db
      {|select F from Provenance.file as F
        where (F.name = "input1.dat" or F.name = "out.gif") and not F.name = "out.gif"|}
  in
  check tstrs "boolean conditions" [ "input1.dat" ] names

let test_process_root () =
  let db, _, _, _, _, _ = sample_db () in
  let names = Helpers.pql_names db "select P from Provenance.process as P" in
  check tstrs "process root" [ "kepler" ] names

let test_attribute_access () =
  let db, _, _, _, _, _ = sample_db () in
  let rows =
    Helpers.pql_rows db
      {|select P.argv from Provenance.process as P where P.name = "kepler"|}
  in
  check tint "one row" 1 (List.length rows)

let test_count_aggregate () =
  let db, _, _, _, _, _ = sample_db () in
  let rows =
    Helpers.pql_rows db
      {|select count(A) from Provenance.file as F F.input* as A where F.name = "out.gif"|}
  in
  match rows with
  | [ [ Pql_eval.Value (Pvalue.Int n) ] ] ->
      (* out.gif v1, out.gif v0, kepler, input1, input2 = 5 node-versions *)
      check tint "count of distinct ancestors" 5 n
  | _ -> Alcotest.fail "expected single count row"

let test_exists_subquery () =
  let db, _, _, _, _, _ = sample_db () in
  (* files that have at least one descendant *)
  let names =
    Helpers.pql_names db
      {|select F from Provenance.file as F
        where exists (select D from F.^input as D)|}
  in
  check tbool "input1 has descendants" true (List.mem "input1.dat" names);
  check tbool "bystander does not" false (List.mem "bystander.txt" names)

let test_in_subquery () =
  let db, _, _, _, _, _ = sample_db () in
  let names =
    Helpers.pql_names db
      {|select F from Provenance.file as F
        where F in (select A from Provenance.file as Out Out.input* as A
                    where Out.name = "out.gif")|}
  in
  check tbool "inputs are in out's ancestry" true (List.mem "input1.dat" names);
  check tbool "bystander is not" false (List.mem "bystander.txt" names)

let test_version_pseudo_attr () =
  let db, _, _, _, _, _ = sample_db () in
  let rows =
    Helpers.pql_rows db {|select F.version from Provenance.file as F where F.name = "out.gif"|}
  in
  match rows with
  | [ [ Pql_eval.Value (Pvalue.Int v) ] ] -> check tint "latest version" 1 v
  | _ -> Alcotest.fail "expected version row"

let test_empty_result () =
  let db, _, _, _, _, _ = sample_db () in
  let rows = Helpers.pql_rows db {|select F from Provenance.file as F where F.name = "absent"|} in
  check tint "no rows" 0 (List.length rows)

let test_multi_column_select () =
  let db, _, _, _, _, _ = sample_db () in
  let p =
    Pql.Engine.prepare db
      {|select F, F.name, F.version from Provenance.file as F where F.name ~ "input*"|}
  in
  let rows = Pql.Engine.execute p in
  check tint "two rows" 2 (List.length rows);
  check tint "three columns" 3 (List.length (List.hd rows));
  check (Alcotest.list Alcotest.string) "column names"
    [ "F"; "F.name"; "F.version" ] (Pql.Engine.columns p)

let test_from_separators () =
  (* comma-separated and juxtaposed sources are both accepted, and mix *)
  let q1 = Pql.parse "select A from Provenance.file as F, F.input* as A" in
  let q2 = Pql.parse "select A from Provenance.file as F F.input* as A" in
  let q3 = Pql.parse "select A from Provenance.file as F, F.input as B B.input* as A" in
  check tint "comma" 2 (List.length q1.froms);
  check tint "juxtaposed" 2 (List.length q2.froms);
  check tint "mixed" 3 (List.length q3.froms)

let test_print_module () =
  let q =
    Pql.parse
      {|select count(A), F.name from Provenance.file as F, F.(input|^input)+ as A
        where not (F.name = "x" and F.version > 2) or F.name ~ "y*" limit 5|}
  in
  let printed = Pql_print.to_string q in
  check Alcotest.bool "reparse equals" true (Pql.parse printed = q)

let test_order_by () =
  let db, _, _, _, _, _ = sample_db () in
  let names_in_order q =
    List.filter_map
      (fun row ->
        match row with [ Pql_eval.Node (p, _) ] -> Provdb.name_of db p | _ -> None)
      (Helpers.pql_rows db q)
  in
  let asc = names_in_order "select F from Provenance.file as F order by F.name asc" in
  let desc = names_in_order "select F from Provenance.file as F order by F.name desc" in
  check (Alcotest.list Alcotest.string) "ascending"
    [ "bystander.txt"; "input1.dat"; "input2.dat"; "out.gif" ] asc;
  check (Alcotest.list Alcotest.string) "descending" (List.rev asc) desc;
  (* order by + limit = deterministic top-k *)
  let top =
    names_in_order "select F from Provenance.file as F order by F.name limit 2"
  in
  check (Alcotest.list Alcotest.string) "top 2" [ "bystander.txt"; "input1.dat" ] top

let test_limit_clause () =
  let db, _, _, _, _, _ = sample_db () in
  let rows =
    Helpers.pql_rows db
      {|select A from Provenance.file as F F.input* as A where F.name = "out.gif" limit 2|}
  in
  check tint "rows pruned to 2" 2 (List.length rows);
  let r0 = Helpers.pql_rows db {|select F from Provenance.file as F limit 0|} in
  check tint "limit 0" 0 (List.length r0);
  (match Pql.parse "select F from Provenance.file as F limit x" with
  | exception Pql.Error _ -> ()
  | _ -> Alcotest.fail "non-integer limit rejected")

let test_any_edge () =
  let db, _, _, _, _, _ = sample_db () in
  let names =
    Helpers.pql_names db {|select A from Provenance.file as F F._* as A where F.name = "out.gif"|}
  in
  check tbool "wildcard closure matches input*" true (List.mem "input2.dat" names)

(* qcheck: printing a parsed query and reparsing yields the same AST *)
let gen_query_ast =
  let open QCheck2.Gen in
  let ident = oneofl [ "X"; "Y"; "Anc"; "File2" ] in
  let attr = oneofl [ "name"; "type"; "version"; "params" ] in
  let edge =
    oneof
      [
        map (fun a -> Pql_ast.Edge (Pql_ast.Forward a)) (oneofl [ "input"; "file_url" ]);
        map (fun a -> Pql_ast.Edge (Pql_ast.Inverse a)) (oneofl [ "input" ]);
        pure (Pql_ast.Edge Pql_ast.Any_edge);
      ]
  in
  let path =
    fix
      (fun self depth ->
        if depth = 0 then edge
        else
          oneof
            [
              edge;
              map2 (fun a b -> Pql_ast.Seq (a, b)) (self (depth - 1)) (self (depth - 1));
              map2 (fun a b -> Pql_ast.Alt (a, b)) (self (depth - 1)) (self (depth - 1));
              map (fun a -> Pql_ast.Star a) (self (depth - 1));
              map (fun a -> Pql_ast.Plus a) (self (depth - 1));
              map (fun a -> Pql_ast.Opt a) (self (depth - 1));
            ])
      2
  in
  let root =
    oneof
      [
        pure Pql_ast.Root_files;
        pure Pql_ast.Root_processes;
        pure Pql_ast.Root_objects;
      ]
  in
  let source =
    map3 (fun root path binder -> { Pql_ast.root; path; binder }) root (option path) ident
  in
  let expr =
    oneof
      [
        map (fun v -> Pql_ast.Var v) ident;
        map2 (fun v a -> Pql_ast.Attr (v, a)) ident attr;
        map (fun s -> Pql_ast.Lit (Pql_ast.L_str s))
          (string_size ~gen:(char_range 'a' 'z') (int_bound 8));
        map (fun i -> Pql_ast.Lit (Pql_ast.L_int i)) (int_bound 100);
      ]
  in
  let cmp = oneofl Pql_ast.[ Eq; Neq; Lt; Le; Gt; Ge; Like ] in
  let cond =
    fix
      (fun self depth ->
        if depth = 0 then map3 (fun a op b -> Pql_ast.Cmp (a, op, b)) expr cmp expr
        else
          oneof
            [
              map3 (fun a op b -> Pql_ast.Cmp (a, op, b)) expr cmp expr;
              map2 (fun a b -> Pql_ast.And (a, b)) (self (depth - 1)) (self (depth - 1));
              map2 (fun a b -> Pql_ast.Or (a, b)) (self (depth - 1)) (self (depth - 1));
              map (fun a -> Pql_ast.Not a) (self (depth - 1));
            ])
      2
  in
  let output =
    oneof
      [
        map (fun e -> Pql_ast.O_expr e) expr;
        map (fun e -> Pql_ast.O_agg (Pql_ast.Count, e)) expr;
      ]
  in
  let order = option (pair expr bool) in
  map3
    (fun select (froms, where) (order, limit) ->
      { Pql_ast.select; froms; where; order; limit })
    (list_size (int_range 1 3) output)
    (pair (list_size (int_range 1 3) source) (option cond))
    (pair order (option (int_bound 50)))

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~name:"pql: print/parse AST roundtrip" ~count:300 gen_query_ast (fun q ->
      let printed = Pql_print.to_string q in
      match Pql.parse printed with
      | q' -> q = q'
      | exception Pql.Error _ -> false)

(* qcheck: glob matcher agrees with a reference implementation on simple
   patterns *)
let prop_glob =
  QCheck2.Test.make ~name:"pql: glob matcher basics" ~count:200
    QCheck2.Gen.(pair (string_size ~gen:(char_range 'a' 'c') (int_bound 6))
                   (string_size ~gen:(char_range 'a' 'c') (int_bound 6)))
    (fun (s, p) ->
      (* pattern without wildcards behaves like equality *)
      Pql_eval.glob_match p s = String.equal p s)

let prop_glob_star =
  QCheck2.Test.make ~name:"pql: '*' matches any suffix" ~count:200
    QCheck2.Gen.(pair (string_size ~gen:printable (int_bound 8))
                   (string_size ~gen:printable (int_bound 8)))
    (fun (prefix, rest) ->
      QCheck2.assume (not (String.contains prefix '*' || String.contains prefix '?'));
      Pql_eval.glob_match (prefix ^ "*") (prefix ^ rest))

(* Each '*' used to re-try every suffix: O(|s|^stars) *)
let test_glob_many_stars () =
  check tbool "8 stars, 200 chars" false
    (Pql_eval.glob_match "*a*a*a*a*a*a*a*a*b" (String.make 200 'a'));
  check tbool "and a match" true (Pql_eval.glob_match "*a*a*a*a*a*a*a*a*b" (String.make 200 'a' ^ "b"))

(* Compaction moves out.gif's v0 — and with it the edge to kepler — below
   the floor.  An ancestry query that crosses that boundary must fault the
   cold tier back in transparently: same answer as the uncompacted db, and
   the evaluator itself never knows an archive exists. *)
let test_ancestry_across_archive_boundary () =
  let ancestry db =
    Helpers.pql_names db
      {|select Ancestor
        from Provenance.file as Atlas
             Atlas.input* as Ancestor
        where Atlas.name = "out.gif"|}
  in
  let db, _, _, _, _, _ = sample_db () in
  let expect = ancestry db in
  (* without a fault handler the hot tier alone loses the ancestors *)
  let blind, _ = Provdb.compact db ~keep:1 in
  check tbool "query really crosses the floor" true
    (List.length (ancestry blind) < List.length expect);
  (* with one, the first below-floor access pulls the cold tier in *)
  let hot, cold = Provdb.compact db ~keep:1 in
  check tbool "compaction expired versions" true
    (Provdb.quad_count hot < Provdb.quad_count db);
  let faulted = ref 0 in
  Provdb.set_fault_handler hot (fun t ->
      incr faulted;
      Provdb.merge_into ~dst:t ~src:cold;
      true);
  check tstrs "ancestry across the archive boundary" expect (ancestry hot);
  check tbool "the query faulted the cold tier in" true (!faulted > 0)

(* --- planner (ISSUE 9) ----------------------------------------------------- *)

(* The flagship access-path decision: a selective name equality turns the
   class scan into a name-index probe, and the dependent closure walk is
   memoized.  Everything the probe absorbed is still re-applied (pushed),
   so the probe can only narrow. *)
let test_plan_uses_name_probe () =
  let db, _, _, _, _, _ = sample_db () in
  let p =
    Pql.Engine.prepare db
      {|select Ancestor
        from Provenance.file as Atlas
             Atlas.input* as Ancestor
        where Atlas.name = "out.gif"|}
  in
  let plan = Pql.Engine.explain p in
  (match plan.Pql_plan.steps with
  | [ s1; s2 ] ->
      (match s1.Pql_plan.access with
      | Pql_plan.Name_probe (Pql_ast.Root_files, "out.gif") -> ()
      | a -> Alcotest.failf "expected name probe, got %s" (Pql_plan.access_str a));
      check tint "probe est = posting length" 1 (Lazy.force s1.Pql_plan.est);
      check tint "name cond still pushed" 1 (List.length s1.Pql_plan.pushed);
      (match s2.Pql_plan.access with
      | Pql_plan.Var_step "Atlas" -> ()
      | a -> Alcotest.failf "expected var step, got %s" (Pql_plan.access_str a));
      check tbool "dependent walk memoized" true s2.Pql_plan.memoized
  | steps -> Alcotest.failf "expected 2 steps, got %d" (List.length steps));
  check tbool "no residual" true (plan.Pql_plan.residual = None)

let test_plan_attr_probe_and_scan () =
  let db, _, _, _, _, _ = sample_db () in
  let explain q = Pql.Engine.explain (Pql.Engine.prepare db q) in
  (* non-pseudo attribute equality: the inverted attribute index wins *)
  let p1 = explain {|select P from Provenance.object as P where P.argv = "kepler"|} in
  (match (List.hd p1.Pql_plan.steps).Pql_plan.access with
  | Pql_plan.Attr_probe (Pql_ast.Root_objects, "ARGV") -> ()
  | a -> Alcotest.failf "expected attr probe, got %s" (Pql_plan.access_str a));
  (* a name glob with a literal prefix probes that range of the ordered
     name index; its cost is the postings over the range *)
  let p2 = explain {|select F from Provenance.file as F where F.name ~ "input*"|} in
  let s2 = List.hd p2.Pql_plan.steps in
  (match s2.Pql_plan.access with
  | Pql_plan.Name_prefix (Pql_ast.Root_files, "input") -> ()
  | a -> Alcotest.failf "expected name-prefix probe, got %s" (Pql_plan.access_str a));
  check tint "prefix est = postings over the range" 2 (Lazy.force s2.Pql_plan.est);
  check tint "glob still pushed" 1 (List.length s2.Pql_plan.pushed);
  (* the literal prefix ends at the first wildcard of either kind *)
  List.iter
    (fun (pat, prefix) ->
      let q = Printf.sprintf {|select F from Provenance.file as F where F.name ~ "%s"|} pat in
      match (List.hd (explain q).Pql_plan.steps).Pql_plan.access with
      | Pql_plan.Name_prefix (Pql_ast.Root_files, p) when String.equal p prefix -> ()
      | a -> Alcotest.failf "%s: expected name-prefix %S, got %s" pat prefix (Pql_plan.access_str a))
    [ ("in?ut*", "in"); ("inp*t?", "inp"); ("input1.dat", "input1.dat") ];
  (* no literal prefix, the literal on the left, or another attribute:
     nothing to range over, so the class scan stays *)
  List.iter
    (fun q ->
      match (List.hd (explain q).Pql_plan.steps).Pql_plan.access with
      | Pql_plan.Scan Pql_ast.Root_files -> ()
      | a -> Alcotest.failf "expected scan for %s, got %s" q (Pql_plan.access_str a))
    [
      {|select F from Provenance.file as F where F.name ~ "*1.dat"|};
      {|select F from Provenance.file as F where "input*" ~ F.name|};
      {|select F from Provenance.file as F where F.params ~ "x*"|};
    ];
  (* version is a pseudo-attribute no record backs: never probed *)
  let p3 = explain {|select F from Provenance.file as F where F.version = 1|} in
  (match (List.hd p3.Pql_plan.steps).Pql_plan.access with
  | Pql_plan.Scan Pql_ast.Root_files -> ()
  | a -> Alcotest.failf "expected scan for pseudo-attr, got %s" (Pql_plan.access_str a))

let test_plan_hash_join () =
  let db, _, _, _, _, _ = sample_db () in
  let p =
    Pql.Engine.prepare db
      {|select F, G from Provenance.file as F, Provenance.file as G
        where F.name = G.name|}
  in
  let plan = Pql.Engine.explain p in
  (match plan.Pql_plan.steps with
  | [ _; s2 ] -> check tbool "cross-binding equality joined" true (s2.Pql_plan.join <> None)
  | _ -> Alcotest.fail "expected 2 steps");
  check tbool "join leaves no residual" true (plan.Pql_plan.residual = None);
  (* every file pairs with itself only (names are unique here) *)
  check tint "self-join rows" 4 (List.length (Pql.Engine.execute p))

let test_plan_unbound_variable () =
  let db, _, _, _, _, _ = sample_db () in
  match Pql.Engine.prepare db "select A from Nowhere.input* as A" with
  | exception Pql.Error (Pql.Plan_error _) -> ()
  | exception Pql.Error _ -> Alcotest.fail "wrong error phase"
  | _ -> Alcotest.fail "unbound variable accepted"

(* EXPLAIN stability: the rendered plan is part of the tool surface
   (passctl --explain, the HOWTO walkthrough), so its exact shape is
   pinned here — before execution (estimates only) and after (estimated
   vs. actual side by side). *)
let test_explain_golden () =
  let db, _, _, _, _, _ = sample_db () in
  let p =
    Pql.Engine.prepare db
      {|select Ancestor
        from Provenance.file as Atlas
             Atlas.input* as Ancestor
        where Atlas.name = "out.gif"|}
  in
  check Alcotest.string "explain before execute"
    "plan:\n\
    \  Atlas <- name-index \"out.gif\" -> files  (est 1)\n\
    \      push Atlas.name = \"out.gif\"\n\
    \  Ancestor <- from Atlas, walk input* [memo]  (est 5)\n\
    \  rows: (est 5)"
    (Pql_plan.to_string (Pql.Engine.explain p));
  let rows = Pql.Engine.execute p in
  check tint "five ancestor rows" 5 (List.length rows);
  check Alcotest.string "explain after execute"
    "plan:\n\
    \  Atlas <- name-index \"out.gif\" -> files  (est 1, actual 1)\n\
    \      push Atlas.name = \"out.gif\"\n\
    \  Ancestor <- from Atlas, walk input* [memo]  (est 5, actual 5)\n\
    \  rows: (est 5, actual 5)"
    (Pql_plan.to_string (Pql.Engine.explain p));
  let g = Pql.Engine.prepare db {|select F from Provenance.file as F where F.name ~ "input*"|} in
  ignore (Pql.Engine.execute g : Pql_eval.item list list);
  check Alcotest.string "explain a name-prefix probe"
    "plan:\n\
    \  F <- name-prefix \"input\" -> files  (est 2, actual 2)\n\
    \      push F.name ~ \"input*\"\n\
    \  rows: (est 2, actual 2)"
    (Pql_plan.to_string (Pql.Engine.explain g))

(* Only EXPLAIN reads an estimate, so the planner defers the one that
   walks the graph: a walk from known starts is not run for its estimate
   by prepare or execute, and rendering the plan afterwards runs it
   then, giving the numbers the golden above pins. *)
let test_walk_estimate_deferred () =
  let db, _, _, _, _, _ = sample_db () in
  let p =
    Pql.Engine.prepare db
      {|select Ancestor from Provenance.file as Atlas Atlas.input* as Ancestor
        where Atlas.name = "out.gif"|}
  in
  ignore (Pql.Engine.execute p : Pql_eval.item list list);
  let plan = Pql.Engine.explain p in
  (match plan.Pql_plan.steps with
  | [ s1; s2 ] ->
      check tbool "probe estimate known" true (Lazy.is_val s1.Pql_plan.est);
      check tbool "walk estimate not measured" false (Lazy.is_val s2.Pql_plan.est)
  | steps -> Alcotest.failf "expected 2 steps, got %d" (List.length steps));
  check tbool "row estimate not measured" false (Lazy.is_val plan.Pql_plan.est_rows);
  check Alcotest.string "explain runs the walk"
    "plan:\n\
    \  Atlas <- name-index \"out.gif\" -> files  (est 1, actual 1)\n\
    \      push Atlas.name = \"out.gif\"\n\
    \  Ancestor <- from Atlas, walk input* [memo]  (est 5, actual 5)\n\
    \  rows: (est 5, actual 5)"
    (Pql_plan.to_string plan)

(* The prefix probe drops the names in its range that the glob does not
   match.  A name's own node name and its NAME records are both indexed
   names of it, and a NAME record is what [F.name] reads: so [ab] aliased
   [out.gif] matches [out*], and [out.gif] aliased [ab] does not, though
   its node name lies in the range. *)
let test_prefix_probe_filters_aliases () =
  let db = Provdb.create () in
  let alloc = Pnode.allocator ~machine:4 in
  let aliased = Pnode.fresh alloc and renamed = Pnode.fresh alloc in
  Provdb.set_file db aliased ~name:"ab";
  Provdb.add_record db aliased ~version:0 (Record.name "out.gif");
  Provdb.set_file db renamed ~name:"out.gif";
  Provdb.add_record db renamed ~version:0 (Record.name "ab");
  let q = {|select F from Provenance.file as F where F.name ~ "out*"|} in
  let ast = Pql.parse q in
  let p = Pql.Engine.prepare_ast db ast in
  (match (Pql.Engine.explain p).Pql_plan.steps with
  | [ { Pql_plan.access = Pql_plan.Name_prefix (Pql_ast.Root_files, "out"); _ } ] -> ()
  | _ -> Alcotest.fail "expected a name-prefix probe");
  let want = [ [ Pql_eval.Node (aliased, 0) ] ] in
  let rows = Alcotest.testable (fun ppf r -> Fmt.pf ppf "%d rows" (List.length r)) ( = ) in
  check rows "oracle" want (Pql_eval.reference_rows db ast);
  check rows "planner" want (Pql.Engine.execute p)

(* The evaluator reads attributes case-insensitively, so a record spelled
   [name] is a name to a query even though it never becomes the node's
   own name.  The name index has to hold it, or a name probe returns
   fewer rows than the oracle. *)
let test_lowercase_name_record_indexed () =
  let db = Provdb.create () in
  let p = Pnode.fresh (Pnode.allocator ~machine:3) in
  Provdb.set_file db p ~name:"a";
  Provdb.add_record db p ~version:0 (Record.make "name" (Pvalue.Str "zzz"));
  check (Alcotest.option Alcotest.string) "node name unchanged" (Some "a") (Provdb.name_of db p);
  List.iter
    (fun q ->
      let ast = Pql.parse q in
      check tint (q ^ " (oracle)") 1 (List.length (Pql_eval.reference_rows db ast));
      check tint (q ^ " (planner)") 1
        (List.length (Pql.Engine.execute (Pql.Engine.prepare_ast db ast))))
    [
      {|select F from Provenance.file as F where F.name = "zzz"|};
      {|select F from Provenance.file as F where F.name ~ "zz*"|};
    ]

(* --- attribute case in path steps ------------------------------------------ *)

(* The planner and the oracle share the step functions, so planner ==
   naive cannot catch a case bug there.  [a] reads [b0], [b1], [b2]
   through INPUT spelled three ways, and [c0]..[c3] through near misses
   that must never match. *)
let test_step_attr_case () =
  let db = Provdb.create () in
  let alloc = Pnode.allocator ~machine:4 in
  let file name =
    let p = Pnode.fresh alloc in
    Provdb.set_file db p ~name;
    p
  in
  let a = file "a" in
  let reads attr name = Provdb.add_record db a ~version:0 (Record.make attr (Pvalue.xref (file name) 0)) in
  List.iteri (fun i attr -> reads attr (Printf.sprintf "b%d" i)) [ "INPUT"; "input"; "Input" ];
  List.iteri
    (fun i attr -> reads attr (Printf.sprintf "c%d" i))
    [ "INPU"; "INPUTS"; "INPUT\xc9"; "inp\xfct" ];
  let rows q = List.map (String.concat "|") (Pql.render db (Pql.Engine.execute (Pql.Engine.prepare db q))) in
  let from name path =
    List.sort String.compare
      (rows (Printf.sprintf {|select X from Provenance.file as F F.%s as X where F.name = "%s"|} path name))
  in
  let ancestry = [ "a.0"; "b0.0"; "b1.0"; "b2.0" ] in
  check tstrs "F.input*" ancestry (from "a" "input*");
  check tstrs "F.INPUT*" ancestry (from "a" "INPUT*");
  check tstrs "F.iNpUt*" ancestry (from "a" "iNpUt*");
  List.iter
    (fun b -> check tstrs ("F.^Input* from " ^ b) [ "a.0"; b ^ ".0" ] (from b "^Input*"))
    [ "b0"; "b1"; "b2" ];
  List.iter
    (fun c -> check tstrs ("F.^Input* from " ^ c) [ c ^ ".0" ] (from c "^Input*"))
    [ "c0"; "c1"; "c2"; "c3" ];
  (* attribute access goes through the same comparison *)
  check tint "F.Input values" 3
    (List.length (rows {|select F.Input from Provenance.file as F where F.name = "a"|}))

(* The Linux-compile workload's graph on a local PASS volume. *)
let linux_compile_db () =
  let sys = Runner.local_system System.Pass in
  (List.hd (Runner.standard ())).Runner.run sys;
  let _ : int = System.drain sys in
  Option.get (System.waldo_db sys "vol0")

(* --- row order --------------------------------------------------------------- *)

(* Rows come out in execution order: a closure's endpoints in
   breadth-first discovery order, then row dedup keeping first
   occurrences.  The set-equality tests do not pin that order, so this
   does: for a fixed query set over a local Linux-compile graph, the MD5
   of the rendered rows in order, and the EXPLAIN text after execution. *)
let row_order_golden =
  [
    ( {|select D from Provenance.file as F F.^input* as D where F.name = "h0.h"|},
      "59a801946cd4fb6408849c97a4f1099f",
      {|plan:
  F <- name-index "h0.h" -> files  (est 1, actual 1)
      push F.name = "h0.h"
  D <- from F, walk ^input* [memo]  (est 91, actual 91)
  rows: (est 91, actual 91)|} );
    ( {|select A from Provenance.file as F F.input* as A where F.name = "vmlinux"|},
      "7cccb33457a599c6d89c28db07ecb557",
      {|plan:
  F <- name-index "vmlinux" -> files  (est 1, actual 1)
      push F.name = "vmlinux"
  A <- from F, walk input* [memo]  (est 318, actual 318)
  rows: (est 318, actual 318)|} );
    ( {|select A from Provenance.file as F F.input+ as A where F.name = "vmlinux"|},
      "fec9db9a1f5059126eac0a4306053d0b",
      {|plan:
  F <- name-index "vmlinux" -> files  (est 1, actual 1)
      push F.name = "vmlinux"
  A <- from F, walk input+ [memo]  (est 317, actual 317)
  rows: (est 317, actual 317)|} );
    ( {|select A from Provenance.file as F F._* as A where F.name = "built-in.o"|},
      "4803f8d1af38f0897e70382e6b9c7da8",
      {|plan:
  F <- name-index "built-in.o" -> files  (est 8, actual 8)
      push F.name = "built-in.o"
  A <- from F, walk _* [memo]  (est 400, actual 400)
  rows: (est 400, actual 316)|} );
    ( {|select A from Provenance.file as F F.Input* as A where F.name = "vmlinux"|},
      "7cccb33457a599c6d89c28db07ecb557",
      {|plan:
  F <- name-index "vmlinux" -> files  (est 1, actual 1)
      push F.name = "vmlinux"
  A <- from F, walk Input* [memo]  (est 318, actual 318)
  rows: (est 318, actual 318)|} );
    ( {|select D from Provenance.file as F F.^iNpUt* as D where F.name = "h0.h"|},
      "59a801946cd4fb6408849c97a4f1099f",
      {|plan:
  F <- name-index "h0.h" -> files  (est 1, actual 1)
      push F.name = "h0.h"
  D <- from F, walk ^iNpUt* [memo]  (est 91, actual 91)
  rows: (est 91, actual 91)|} );
    ( {|select F from Provenance.object as F where F.name ~ "f1*"|},
      "6026c2fe1cc8d4806244587d40decfbe",
      {|plan:
  F <- name-prefix "f1" -> objects  (est 48, actual 48)
      push F.name ~ "f1*"
  rows: (est 48, actual 48)|} );
    ( {|select F from Provenance.object as F where F.name ~ "*.h"|},
      "bfe7afaa5dcc915b885395cdf3a27c1f",
      {|plan:
  F <- scan objects  (est 318, actual 6)
      push F.name ~ "*.h"
  rows: (est 318, actual 6)|} );
  ]

let test_row_order_golden () =
  let db = linux_compile_db () in
  List.iter
    (fun (q, md5, explain) ->
      let p = Pql.Engine.prepare db q in
      let rows = Pql.render db (Pql.Engine.execute p) in
      let text = String.concat "\n" (List.map (String.concat " | ") rows) in
      check Alcotest.string (q ^ ": rows in order") md5 (Digest.to_hex (Digest.string text));
      check Alcotest.string (q ^ ": explain") explain (Pql_plan.to_string (Pql.Engine.explain p)))
    row_order_golden

(* A walk from known starts is estimated by running its path from each
   start, so with nothing pushed on the walk's binder its estimate is
   what execute binds: for every named file of a Linux-compile graph,
   its ancestors and its descendants. *)
let test_known_start_estimates () =
  let db = linux_compile_db () in
  let names =
    List.filter_map
      (fun (n : Provdb.node) -> if n.kind = Provdb.File then n.node_name else None)
      (Provdb.all_nodes db)
  in
  let steps = ref 0 and off = ref [] in
  List.iter
    (fun name ->
      List.iter
        (fun path ->
          let p =
            Pql.Engine.prepare db
              (Printf.sprintf {|select A from Provenance.file as F F.%s as A where F.name = "%s"|}
                 path name)
          in
          ignore (Pql.Engine.execute p : Pql_eval.item list list);
          match (Pql.Engine.explain p).Pql_plan.steps with
          | [ _; walk ] ->
              incr steps;
              let est = Lazy.force walk.Pql_plan.est in
              if est <> walk.Pql_plan.actual then
                off := Printf.sprintf "%s %s: est %d, actual %d" name path est walk.actual :: !off
          | _ -> Alcotest.failf "%s %s: expected 2 steps" name path)
        [ "input*"; "^input*" ])
    names;
  check tint "walk steps" 420 !steps;
  check tstrs "steps whose estimate is not their actual" [] (List.rev !off)

(* --- closure row order -------------------------------------------------------- *)

(* One edge from (pnode, version), read from Provdb's edge accessors
   without the evaluator: ancestry edges named [attr] in any case ([None]:
   every ancestry edge), or with [~inverse] the edges into any version
   of the pnode. *)
let oracle_step db ~inverse attr (p, v) =
  let named a =
    match attr with None -> true | Some want -> String.equal (String.uppercase_ascii a) want
  in
  if inverse then
    List.filter_map
      (fun (src, srcv, a, _) -> if named a then Some (src, srcv) else None)
      (Provdb.in_edges db p)
  else
    List.filter_map
      (fun (a, (x : Pvalue.xref)) -> if named a then Some (x.pnode, x.version) else None)
      (Provdb.out_edges db p ~version:v)

(* A plain level walk from [root] over [next], with a visited table of
   its own: level d lists, in discovery order, the cells first reached at
   depth d.  Concatenated, the levels are the breadth-first order. *)
let bfs_levels next root =
  let seen = Hashtbl.create 256 in
  let fresh =
    List.filter (fun k ->
        (not (Hashtbl.mem seen k))
        &&
        (Hashtbl.replace seen k ();
         true))
  in
  let rec go level = match fresh level with [] -> [] | l -> l :: go (List.concat_map next l) in
  go [ root ]

let cell_of_row = function
  | [ Pql.Node (p, v) ] -> (p, v)
  | _ -> Alcotest.fail "a closure over ancestry edges gave a row that is not one node"

let closure_rows db path (f : Provdb.node) =
  let q =
    Printf.sprintf "select A from Provenance.file as F F.%s as A where F.pnode = %d" path
      (Pnode.to_int f.pnode)
  in
  List.map cell_of_row (Pql.Engine.execute (Pql.Engine.prepare db q))

let files_named db name =
  List.filter_map (fun p -> Provdb.find_node db p) (Provdb.find_by_name db name)

let tcells = Alcotest.(list (pair int int))
let ints cells = List.map (fun (p, v) -> (Pnode.to_int p, v)) cells

(* A closure lists its endpoints in breadth-first discovery order: its
   starts first, then items whose depth from the bound node never
   decreases.  The golden's closures, one start file at a time (a
   multi-file binding concatenates several closures). *)
let test_closure_bfs_order () =
  let db = linux_compile_db () in
  List.iter
    (fun (name, path, inverse, attr, plus) ->
      List.iter
        (fun (f : Provdb.node) ->
          let what = Printf.sprintf "F.%s from %s (%d)" path name (Pnode.to_int f.pnode) in
          let rows = closure_rows db path f in
          let next = oracle_step db ~inverse attr in
          let root = (f.pnode, f.max_version) in
          let starts = if plus then List.sort_uniq Provdb.compare_pv (next root) else [ root ] in
          let first = List.filteri (fun i _ -> i < List.length starts) rows in
          check tcells (what ^ ": starts first") (ints starts)
            (ints (List.sort Provdb.compare_pv first));
          let depth = Hashtbl.create 256 in
          List.iteri
            (fun d -> List.iter (fun k -> Hashtbl.replace depth k d))
            (bfs_levels next root);
          let _ : int =
            List.fold_left
              (fun prev cell ->
                let d = Hashtbl.find depth cell in
                if d < prev then Alcotest.failf "%s: depth %d after depth %d" what d prev;
                d)
              0 rows
          in
          ())
        (files_named db name))
    [
      ("h0.h", "^input*", true, Some "INPUT", false);
      ("h0.h", "^iNpUt*", true, Some "INPUT", false);
      ("vmlinux", "input*", false, Some "INPUT", false);
      ("vmlinux", "Input*", false, Some "INPUT", false);
      ("vmlinux", "input+", false, Some "INPUT", true);
      ("built-in.o", "_*", false, None, false);
    ]

(* --- closures against independent oracles ------------------------------------ *)

(* Every file's closure over [path], in row order: one two-column query,
   whose rows come out grouped by F with each group in closure order. *)
let closures_by_file db path =
  let q = Printf.sprintf "select F, A from Provenance.file as F F.%s as A" path in
  let by = Hashtbl.create 256 in
  List.iter
    (function
      | [ Pql.Node (f, _); a ] ->
          Hashtbl.replace by f
            (cell_of_row [ a ] :: Option.value (Hashtbl.find_opt by f) ~default:[])
      | _ -> Alcotest.fail "expected (F, A) node rows")
    (Pql.Engine.execute (Pql.Engine.prepare db q));
  fun (f : Provdb.node) -> List.rev (Option.value (Hashtbl.find_opt by f.pnode) ~default:[])

(* For every file of the Linux-compile graph: [F._*] reaches exactly F and
   [Provdb.ancestors] (a depth-first walk of its own), in the order of a
   level walk over [out_edges]; [F.^input*] lists what a level walk over
   [in_edges] finds, in the same order. *)
let test_closures_match_oracles () =
  let db = linux_compile_db () in
  let files = List.filter (fun (n : Provdb.node) -> n.kind = Provdb.File) (Provdb.all_nodes db) in
  let any = closures_by_file db "_*" and descendants = closures_by_file db "^input*" in
  List.iter
    (fun (f : Provdb.node) ->
      let root = (f.pnode, f.max_version) in
      let what =
        Printf.sprintf "%s (%d)" (Option.value f.node_name ~default:"?") (Pnode.to_int f.pnode)
      in
      let rows = any f in
      check tcells ("F._* = F + ancestors: " ^ what)
        (ints
           (List.sort_uniq Provdb.compare_pv
              (root :: Provdb.ancestors db f.pnode ~version:f.max_version)))
        (ints (List.sort Provdb.compare_pv rows));
      check tcells ("F._* in BFS order: " ^ what)
        (ints (List.concat (bfs_levels (oracle_step db ~inverse:false None) root)))
        (ints rows);
      check tcells ("F.^input* = reverse walk: " ^ what)
        (ints (List.concat (bfs_levels (oracle_step db ~inverse:true (Some "INPUT")) root)))
        (ints (descendants f)))
    files;
  check tbool "some file has ancestors" true
    (List.exists (fun f -> List.length (any f) > 1) files)

(* A graph whose walks need archived history partway through.  [out] has
   three versions chained by freeze edges, and versions 0 and 2 were
   written by [cc]; [cc] read [src] at versions 0 and 2.  So [out.input*]
   reaches [out] and [src] at two versions each, and with [~keep:1] every
   version but the newest is archived: the walk from out@2 finds its first
   hop resident and faults the archive in at out@1. *)
let versioned_db () =
  let db = Provdb.create () in
  let alloc = Pnode.allocator ~machine:6 in
  let src = Pnode.fresh alloc and cc = Pnode.fresh alloc and out = Pnode.fresh alloc in
  Provdb.set_file db src ~name:"src";
  Provdb.set_file db out ~name:"out";
  Provdb.declare_virtual db cc;
  let add p v r = Provdb.add_record db p ~version:v r in
  let freeze p v = add p v (Record.make Record.Attr.freeze (Pvalue.Int v)) in
  add src 0 (Record.make "DATA" (Pvalue.Int 0));
  List.iter
    (fun v ->
      freeze src v;
      add src v (Record.input_of src (v - 1)))
    [ 1; 2; 3 ];
  add cc 0 (Record.typ "PROCESS");
  add cc 0 (Record.name "cc");
  add cc 0 (Record.input_of src 0);
  add cc 0 (Record.input_of src 2);
  add out 0 (Record.input_of cc 0);
  freeze out 1;
  add out 1 (Record.input_of out 0);
  freeze out 2;
  add out 2 (Record.input_of out 1);
  add out 2 (Record.input_of cc 0);
  (db, src, cc, out)

(* On a compacted db a closure faults the archive in where it first needs
   it, and keeps walking the cells and reverse edges the fault-in added to
   slots it already holds: the rows, and their order, are those of the
   db that was never compacted.  An inverse walk faults in before its
   first hop, which inserts the archived reverse edges after the resident
   ones; they are read in source order all the same, so it lists its rows
   as the never-compacted db and a db restarted from its image do.  The
   paths run from a start item straight through the evaluator, because
   binding F by name or by a predicate would fault the archive in before
   the walk. *)
let test_closure_across_archive_midwalk () =
  let db, src, cc, out = versioned_db () in
  let compacted () =
    let hot, cold = Provdb.compact db ~keep:1 in
    let faulted = ref 0 in
    Provdb.set_fault_handler hot (fun t ->
        incr faulted;
        Provdb.merge_into ~dst:t ~src:cold;
        true);
    (hot, faulted)
  in
  let walk db text (p, v) =
    let path =
      match (Pql.parse ("select A from Provenance.object as F F." ^ text ^ " as A")).froms with
      | [ _; { path = Some path; _ } ] -> path
      | _ -> Alcotest.fail ("not a path: " ^ text)
    in
    let ends = Pql_eval.eval_path db path [ Pql.Node (p, v) ] in
    List.map (String.concat "|") (Pql.render db (List.map (fun it -> [ it ]) ends))
  in
  let hot, faulted = compacted () in
  check tstrs "one step from out@2" [ "out.1"; "cc.0" ] (walk hot "input" (out, 2));
  check tint "the first hop is resident" 0 !faulted;
  check tstrs "out.input* reaches two pnodes at several versions"
    [ "out.2"; "out.1"; "cc.0"; "out.0"; "src.0"; "src.2"; "src.1" ]
    (walk db "input*" (out, 2));
  let restarted = Provdb.deserialize (Provdb.serialize db) in
  List.iter
    (fun (text, start, what) ->
      let hot, faulted = compacted () in
      let label = Printf.sprintf "%s from %s" text what in
      check tstrs label (walk db text start) (walk hot text start);
      check tbool (label ^ ": faulted the archive in") true (!faulted > 0);
      check tstrs (label ^ ": restarted") (walk db text start) (walk restarted text start))
    [
      ("input*", (out, 2), "out@2");
      ("input+", (out, 2), "out@2");
      ("_*", (out, 2), "out@2");
      ("input*", (cc, 0), "cc@0");
      ("^input*", (src, 3), "src@3");
      ("^input*", (cc, 0), "cc@0");
    ]

(* --- planner == naive oracle on random graphs x random queries ------------- *)

(* Names that share prefixes, so globs select proper subsets of them. *)
let name_pool = [ "a"; "ab"; "a.b"; "b"; "c"; "out.gif"; "out.c" ]

(* A generated graph description: node i is a process or a file, owns a
   (possibly duplicated) name, reads a set of earlier nodes, may carry a
   PARAMS attribute, and may carry an alias: a NAME record in some
   attribute case, holding a string or bytes, at version 0 or 1. *)
let build_random_db
    (specs : (bool * string * int list * string option * (string * Pvalue.t * int) option) list) =
  let db = Provdb.create () in
  let alloc = Pnode.allocator ~machine:7 in
  let nodes = Array.of_list (List.map (fun _ -> Pnode.fresh alloc) specs) in
  List.iteri
    (fun i (is_proc, name, parents, params, alias) ->
      let pn = nodes.(i) in
      if is_proc then begin
        Provdb.declare_virtual db pn;
        Provdb.add_record db pn ~version:0 (Record.typ "PROCESS");
        Provdb.add_record db pn ~version:0 (Record.name name)
      end
      else Provdb.set_file db pn ~name;
      List.iter
        (fun j -> Provdb.add_record db pn ~version:0 (Record.input_of nodes.(j mod i) 0))
        (if i = 0 then [] else parents);
      (match params with
      | Some v -> Provdb.add_record db pn ~version:0 (Record.make "PARAMS" (Pvalue.Str v))
      | None -> ());
      match alias with
      | Some (attr, v, version) -> Provdb.add_record db pn ~version (Record.make attr v)
      | None -> ())
    specs;
  db

let gen_graph =
  let open QCheck2.Gen in
  let alias =
    triple
      (oneofl [ "NAME"; "name"; "Name" ])
      (map2 (fun bytes n -> if bytes then Pvalue.Bytes n else Pvalue.Str n) bool (oneofl name_pool))
      (int_bound 1)
  in
  let node_spec =
    tup5 bool (oneofl name_pool)
      (list_size (int_bound 2) (int_bound 20))
      (option (oneofl [ "x"; "y" ]))
      (option ~ratio:0.7 alias)
  in
  list_size (int_range 2 10) node_spec

(* Random well-typed queries over sequential binders B0..Bk: class roots
   or walks from earlier binders, sargable and non-sargable conditions,
   cross-binding equalities, plain or count() selects.  No order-by /
   limit / mixed agg+expr selects: those pick representatives the two
   pipelines may legitimately pick differently. *)
let gen_query_for_planner =
  let open QCheck2.Gen in
  let path_pool =
    let e = Pql_ast.Edge (Pql_ast.Forward "input") in
    let inv = Pql_ast.Edge (Pql_ast.Inverse "input") in
    Pql_ast.
      [ e; inv; Star e; Plus e; Star inv; Edge Any_edge; Star (Edge Any_edge); Alt (e, inv) ]
  in
  let binder i = "B" ^ string_of_int i in
  let root = oneofl Pql_ast.[ Root_files; Root_objects; Root_processes ] in
  let source i =
    if i = 0 then map2 (fun r p -> { Pql_ast.root = r; path = p; binder = binder 0 }) root
        (option (oneofl path_pool))
    else
      oneof
        [
          map2 (fun r p -> { Pql_ast.root = r; path = p; binder = binder i }) root
            (option (oneofl path_pool));
          map2
            (fun v p -> { Pql_ast.root = Pql_ast.Root_var (binder v); path = Some p; binder = binder i })
            (int_bound (i - 1)) (oneofl path_pool);
        ]
  in
  let cond k =
    let attr = oneofl [ "name"; "NAME"; "params"; "type"; "version" ] in
    let lit =
      oneof
        [
          map (fun s -> Pql_ast.L_str s) (oneofl [ "a"; "ab"; "b"; "out.gif"; "x"; "PROCESS" ]);
          map (fun i -> Pql_ast.L_int i) (int_bound 3);
        ]
    in
    (* globs with and without a literal prefix, and plain literals *)
    let pat =
      oneof
        [
          map (fun s -> Pql_ast.L_str s)
            (oneofl
               [ "a*"; "a?"; "a?*"; "a*?"; "out*.gif"; "ou?.*"; "*"; "*.gif"; "?b"; "a.*"; "x*"; "a"; "out.c" ]);
          lit;
        ]
    in
    let bvar = map binder (int_bound (k - 1)) in
    frequency
      [
        (2, map3 (fun b a l -> Pql_ast.Cmp (Pql_ast.Attr (b, a), Pql_ast.Eq, Pql_ast.Lit l)) bvar attr lit);
        (2, map3 (fun b a l -> Pql_ast.Cmp (Pql_ast.Attr (b, a), Pql_ast.Like, Pql_ast.Lit l)) bvar attr pat);
        (* name keys the index can serve, in any attribute case *)
        ( 4,
          map3
            (fun b a (op, l) -> Pql_ast.Cmp (Pql_ast.Attr (b, a), op, Pql_ast.Lit l))
            bvar
            (oneofl [ "name"; "NAME"; "Name" ])
            (pair (oneofl Pql_ast.[ Eq; Like ]) pat) );
        ( 2,
          map3
            (fun b a (op, l) -> Pql_ast.Cmp (Pql_ast.Attr (b, a), op, Pql_ast.Lit l))
            bvar attr
            (pair (oneofl Pql_ast.[ Neq; Lt; Ge ]) lit) );
        (1, map2 (fun b1 b2 -> Pql_ast.Cmp (Pql_ast.Var b1, Pql_ast.Eq, Pql_ast.Var b2)) bvar bvar);
        ( 1,
          map2
            (fun b1 b2 ->
              Pql_ast.Cmp
                (Pql_ast.Attr (b1, "name"), Pql_ast.Eq, Pql_ast.Attr (b2, "name")))
            bvar bvar );
      ]
  in
  let* k = int_range 1 3 in
  let* froms = flatten_l (List.init k source) in
  let* where =
    let* n = int_bound 2 in
    if n = 0 then pure None
    else
      let* cs = list_size (pure n) (cond k) in
      pure (match cs with [] -> None | c :: rest ->
        Some (List.fold_left (fun acc c -> Pql_ast.And (acc, c)) c rest))
  in
  let* select =
    oneof
      [
        (let* b = int_bound (k - 1) in
         pure [ Pql_ast.O_expr (Pql_ast.Var (binder b)) ]);
        (let* b = int_bound (k - 1) in
         pure [ Pql_ast.O_agg (Pql_ast.Count, Pql_ast.Var (binder b)) ]);
        pure (List.init k (fun i -> Pql_ast.O_expr (Pql_ast.Var (binder i))));
      ]
  in
  pure { Pql_ast.select; froms; where; order = None; limit = None }

(* a total order on rows so both pipelines' outputs compare as sets *)
let row_key row =
  String.concat "|"
    (List.map
       (function
         | Pql_eval.Node (p, v) -> Printf.sprintf "n:%d:%d" (Pnode.to_int p) v
         | Pql_eval.Value v -> (
             match v with
             | Pvalue.Str s -> "s:" ^ s
             | Pvalue.Int i -> "i:" ^ string_of_int i
             | Pvalue.Bool b -> "b:" ^ string_of_bool b
             | Pvalue.Bytes b -> "y:" ^ b
             | Pvalue.Strs l -> "l:" ^ String.concat "," l
             | Pvalue.Xref x -> Printf.sprintf "x:%d:%d" (Pnode.to_int x.pnode) x.version))
       row)

let sorted_keys rows = List.sort String.compare (List.map row_key rows)

let prop_planner_matches_naive =
  QCheck2.Test.make ~name:"pql: planner rows = naive oracle" ~count:500
    QCheck2.Gen.(pair gen_graph gen_query_for_planner)
    (fun (specs, q) ->
      let db = build_random_db specs in
      let planner = Pql.Engine.execute (Pql.Engine.prepare_ast db q) in
      let naive = Pql_eval.reference_rows db q in
      List.equal String.equal (sorted_keys planner) (sorted_keys naive))

(* The prefix probe is exactly the union of the equality lookups over
   the kept names in its range — on a fresh db and on every other route
   into a db that rebuilds the name index. *)
let prefix_probe_agrees db =
  List.for_all
    (fun prefix ->
      let in_range = List.filter (String.starts_with ~prefix) name_pool in
      let lookups keep = List.map (Provdb.find_by_name db) (List.filter keep in_range) in
      List.for_all
        (fun keep ->
          List.equal Pnode.equal
            (List.sort_uniq Pnode.compare (List.concat (lookups keep)))
            (Provdb.find_by_name_prefix db prefix ~keep))
        [ Fun.const true; Pql_eval.glob_match "*.?"; Fun.const false ]
      && Provdb.name_prefix_postings db prefix
         = List.fold_left (fun acc l -> acc + List.length l) 0 (lookups (Fun.const true)))
    [ ""; "a"; "a."; "ab"; "b"; "out"; "out."; "out.gif"; "zzz"; "\255" ]

let prop_prefix_probe =
  QCheck2.Test.make ~name:"provdb: name-prefix probe = union of name lookups" ~count:300
    QCheck2.Gen.(pair gen_graph gen_graph)
    (fun (specs, other) ->
      let db = build_random_db specs in
      let merged = build_random_db other in
      Provdb.merge_into ~dst:merged ~src:db;
      let hot, cold = Provdb.compact merged ~keep:1 in
      List.for_all prefix_probe_agrees
        [ db; merged; hot; cold; Provdb.deserialize (Provdb.serialize merged) ])

(* --- the bulk loader against an add_record replay ---------------------------- *)

(* A Provdb image taken apart: raw node entries (pnode, kind byte, name,
   max version, floor) and the quads in image order. *)
type image = { i_nodes : (int * int * string * int * int) list; i_quads : (int * int * Record.t) list }

let parse_image s =
  let pos = ref 0 in
  let _magic : string = Wire.get_string s pos in
  let node _ =
    let p = Wire.get_i64 s pos in
    let kind = Wire.get_u8 s pos in
    let name = Wire.get_string s pos in
    let maxv = Wire.get_i64 s pos in
    (p, kind, name, maxv, Wire.get_i64 s pos)
  in
  let i_nodes = List.init (Wire.get_u32 s pos) node in
  let quad _ =
    let p = Wire.get_i64 s pos in
    let v = Wire.get_i64 s pos in
    (p, v, Record.decode s pos)
  in
  { i_nodes; i_quads = List.init (Wire.get_u32 s pos) quad }

(* Re-encode under [magic], with the (edges, attrs) index-stats footer. *)
let build_image ?(magic = "PROVDB4") ~footer img =
  let buf = Buffer.create 1024 in
  Wire.put_string buf magic;
  Wire.put_u32 buf (List.length img.i_nodes);
  List.iter
    (fun (p, kind, name, maxv, floor) ->
      Wire.put_i64 buf p;
      Wire.put_u8 buf kind;
      Wire.put_string buf name;
      Wire.put_i64 buf maxv;
      Wire.put_i64 buf floor)
    img.i_nodes;
  Wire.put_u32 buf (List.length img.i_quads);
  List.iter
    (fun (p, v, r) ->
      Wire.put_i64 buf p;
      Wire.put_i64 buf v;
      Record.encode buf r)
    img.i_quads;
  Wire.put_i64 buf (fst footer);
  Wire.put_i64 buf (snd footer);
  Buffer.contents buf

let footer_of s =
  let pos = ref (String.length s - 16) in
  let edges = Wire.get_i64 s pos in
  (edges, Wire.get_i64 s pos)

(* The oracle: the node table alone (an image without quads, so its
   footer is (0, 0)), then every quad through add_record, one at a time,
   in image order. *)
let replay_image img =
  let db = Provdb.deserialize (build_image ~footer:(0, 0) { img with i_quads = [] }) in
  List.iter (fun (p, v, r) -> Provdb.add_record db (Pnode.of_int p) ~version:v r) img.i_quads;
  db

let attr_pool = [ "INPUT"; "input"; "NAME"; "Name"; "TYPE"; "PARAMS"; "nope" ]

(* Order-sensitive agreement of everything a query reads. *)
let same_db a b =
  let eq_x (x : Pvalue.xref) (y : Pvalue.xref) = Pnode.equal x.pnode y.pnode && x.version = y.version in
  let eq_in (p, v, a, w) (p', v', a', w') = Pnode.equal p p' && v = v' && String.equal a a' && w = w' in
  let eq_out (v, a, x) (v', a', x') = v = v' && String.equal a a' && eq_x x x' in
  let eq_pv x y = Provdb.compare_pv x y = 0 in
  let pnodes = List.sort Pnode.compare (List.map (fun (n : Provdb.node) -> n.pnode) (Provdb.all_nodes a)) in
  String.equal (Provdb.serialize a) (Provdb.serialize b)
  && Provdb.db_bytes a = Provdb.db_bytes b
  && Provdb.index_bytes a = Provdb.index_bytes b
  && Provdb.quad_count a = Provdb.quad_count b
  && List.for_all
       (fun p ->
         List.equal eq_in (Provdb.in_edges a p) (Provdb.in_edges b p)
         && List.equal eq_out (Provdb.out_edges_all a p) (Provdb.out_edges_all b p)
         && List.equal Record.equal (Provdb.records_all a p) (Provdb.records_all b p))
       pnodes
  && List.for_all
       (fun attr ->
         List.equal eq_pv (Provdb.with_attr a attr) (Provdb.with_attr b attr)
         && Provdb.attr_cardinality a attr = Provdb.attr_cardinality b attr)
       attr_pool
  && List.for_all
       (fun prefix ->
         let keep = Fun.const true in
         List.equal Pnode.equal (Provdb.find_by_name_prefix a prefix ~keep)
           (Provdb.find_by_name_prefix b prefix ~keep))
       [ ""; "a"; "out"; "zzz" ]

let loads_like_replay image =
  let img = parse_image image in
  let footer = footer_of image in
  let shuffled = { img with i_quads = List.rev img.i_quads } in
  let corrupt image =
    match Provdb.deserialize image with exception Wire.Corrupt _ -> true | _ -> false
  in
  Result.is_ok (Provdb.verify_indexes (Provdb.deserialize image))
  && same_db (Provdb.deserialize image) (replay_image img)
  && same_db (Provdb.deserialize (build_image ~footer shuffled)) (replay_image shuffled)
  && List.for_all (fun magic -> corrupt (build_image ~magic ~footer img)) [ "PROVDB3"; "PROVDB2" ]
  && corrupt (build_image ~footer:(fst footer, snd footer + 1) img)

(* The bulk loader builds what an add_record replay of the same image
   builds — on random, merged and compacted dbs and on quads out of
   image order — and rejects the retired PROVDB3/PROVDB2 headers and a
   tampered footer; an archive segment loaded into its hot tier equals
   the merge of the decoded segment. *)
let prop_loader_matches_replay =
  QCheck2.Test.make ~name:"provdb: bulk loader = add_record replay" ~count:200
    QCheck2.Gen.(pair gen_graph gen_graph)
    (fun (specs, other) ->
      let db = build_random_db specs in
      let merged = build_random_db other in
      Provdb.merge_into ~dst:merged ~src:db;
      let hot, cold = Provdb.compact merged ~keep:1 in
      let faulted = Provdb.deserialize (Provdb.serialize hot) in
      Provdb.load faulted (Provdb.serialize cold);
      let merged_in = Provdb.deserialize (Provdb.serialize hot) in
      Provdb.merge_into ~dst:merged_in ~src:(Provdb.deserialize (Provdb.serialize cold));
      List.for_all (fun d -> loads_like_replay (Provdb.serialize d)) [ db; merged; hot; cold ]
      && String.equal (Provdb.serialize faulted) (Provdb.serialize merged_in)
      && Provdb.db_bytes faulted = Provdb.db_bytes merged_in
      && Provdb.index_bytes faulted = Provdb.index_bytes merged_in
      && Result.is_ok (Provdb.verify_indexes faulted))

(* --- the slot layout against the record-at-a-time replay ---------------------- *)

(* A node with a long history, inserted out of version order: 1 200
   versions, dense up to 599 and every other one from 1 200 on, each
   reading the lowest pnode of [db] and, like a freeze, the version
   before it.  The odd-numbered ones are added downwards and then the
   even ones upwards, so cells go into the middle of the node's array
   and the reverse edges into both nodes arrive out of source order.
   An inverse closure over it reaches all 1 200 versions of the node. *)
let add_long_history db =
  let first =
    List.fold_left (fun m (n : Provdb.node) -> if Pnode.compare n.pnode m < 0 then n.pnode else m)
      (Pnode.of_int max_int) (Provdb.all_nodes db)
  in
  let long = Pnode.fresh (Pnode.allocator ~machine:8) in
  let version i = if i < 600 then i else 2 * i in
  let odd, even = List.partition (fun i -> i land 1 = 1) (List.init 1_200 Fun.id) in
  List.iter
    (fun i ->
      Provdb.add_record db long ~version:(version i) (Record.input_of first 0);
      if i > 0 then
        Provdb.add_record db long ~version:(version i) (Record.input_of long (version (i - 1))))
    (List.rev odd @ even)

(* Everything a query reads of [db], node by node, equals what the
   replay of its image through [add_record] reads: reverse edges through
   [in_edges] and [iter_refs], cells through [records_at] and
   [records_all] and [out_edges], and the forward and inverse closures'
   rows from each node's newest and oldest version. *)
let reads_like_replay db =
  let r = replay_image (parse_image (Provdb.serialize db)) in
  let eq_x (x : Pvalue.xref) (y : Pvalue.xref) = Pnode.equal x.pnode y.pnode && x.version = y.version in
  let eq_in (p, v, a, w) (p', v', a', w') = Pnode.equal p p' && v = v' && String.equal a a' && w = w' in
  let eq_ref (p, v, a) (p', v', a') = Pnode.equal p p' && v = v' && String.equal a a' in
  let refs d p =
    let l = ref [] in
    Provdb.iter_refs d (Provdb.find_slot d p) (fun s v a -> l := (Provdb.slot_pnode s, v, a) :: !l);
    List.rev !l
  in
  let closure d e p v = Pql_eval.eval_path d (Pql_ast.Star (Pql_ast.Edge e)) [ Pql_eval.Node (p, v) ] in
  let eq_item a b =
    match (a, b) with
    | Pql_eval.Node (p, v), Pql_eval.Node (p', v') -> Pnode.equal p p' && v = v'
    | Pql_eval.Value x, Pql_eval.Value y -> Pvalue.equal x y
    | _ -> false
  in
  List.for_all
       (fun (n : Provdb.node) ->
         let p = n.pnode in
         List.equal eq_in (Provdb.in_edges db p) (Provdb.in_edges r p)
         && List.equal eq_ref (refs db p) (refs r p)
         && List.equal eq_ref (refs db p) (List.map (fun (s, v, a, _) -> (s, v, a)) (Provdb.in_edges db p))
         && List.equal Record.equal (Provdb.records_all db p) (Provdb.records_all r p)
         && List.for_all
              (fun v ->
                List.equal Record.equal (Provdb.records_at db p ~version:v) (Provdb.records_at r p ~version:v)
                && List.equal
                     (fun (a, x) (b, y) -> String.equal a b && eq_x x y)
                     (Provdb.out_edges db p ~version:v) (Provdb.out_edges r p ~version:v))
              (Provdb.versions db p)
         && List.for_all
              (fun e ->
                List.for_all
                  (fun v -> List.equal eq_item (closure db e p v) (closure r e p v))
                  [ 0; n.max_version ])
              [ Pql_ast.Forward "input"; Pql_ast.Inverse "input" ])
       (Provdb.all_nodes db)

(* Plain, merged, compacted, faulted in and reloaded from an image, each
   with one node of 1 200 versions; each also passes the index
   self-check. *)
let prop_layout_matches_replay =
  QCheck2.Test.make ~name:"provdb: slot layout reads like the add_record replay" ~count:50
    QCheck2.Gen.(pair gen_graph gen_graph)
    (fun (specs, other) ->
      let db = build_random_db specs in
      add_long_history db;
      let merged = build_random_db other in
      Provdb.merge_into ~dst:merged ~src:db;
      let hot, cold = Provdb.compact merged ~keep:1 in
      let faulted, _ = Provdb.compact merged ~keep:1 in
      Provdb.set_fault_handler faulted (fun t ->
          Provdb.load t (Provdb.serialize cold);
          true);
      Provdb.fault_in faulted;
      let reloaded = Provdb.deserialize (Provdb.serialize merged) in
      List.for_all
        (fun d -> reads_like_replay d && Result.is_ok (Provdb.verify_indexes d))
        [ db; merged; hot; faulted; reloaded ])

(* A property run from a pinned seed, so a CI failure replays exactly. *)
let pinned prop = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) prop

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_print_parse_roundtrip; prop_glob; prop_glob_star ]
  @ List.map pinned
      [ prop_planner_matches_naive; prop_prefix_probe; prop_loader_matches_replay;
        prop_layout_matches_replay ]

let suite =
  [
    Alcotest.test_case "parse: the paper's sample query" `Quick test_parse_paper_query;
    Alcotest.test_case "parse: path operators" `Quick test_parse_operators;
    Alcotest.test_case "parse: errors rejected" `Quick test_parse_errors;
    Alcotest.test_case "lex: comments and strings" `Quick test_lexer_comments_and_strings;
    Alcotest.test_case "eval: paper query full ancestry" `Quick test_paper_query_semantics;
    Alcotest.test_case "eval: input+ semantics" `Quick test_plus_excludes_self;
    Alcotest.test_case "eval: single step" `Quick test_single_step;
    Alcotest.test_case "eval: inverse edge" `Quick test_inverse_edges;
    Alcotest.test_case "eval: inverse closure (descendants)" `Quick
      test_inverse_closure_descendants;
    Alcotest.test_case "eval: glob in where" `Quick test_where_filters;
    Alcotest.test_case "eval: and/or/not" `Quick test_where_and_or_not;
    Alcotest.test_case "eval: Provenance.process root" `Quick test_process_root;
    Alcotest.test_case "eval: attribute access" `Quick test_attribute_access;
    Alcotest.test_case "eval: count aggregate" `Quick test_count_aggregate;
    Alcotest.test_case "eval: exists subquery" `Quick test_exists_subquery;
    Alcotest.test_case "eval: in subquery" `Quick test_in_subquery;
    Alcotest.test_case "eval: version pseudo-attribute" `Quick test_version_pseudo_attr;
    Alcotest.test_case "eval: empty result" `Quick test_empty_result;
    Alcotest.test_case "eval: multi-column select" `Quick test_multi_column_select;
    Alcotest.test_case "parse: from-list separators" `Quick test_from_separators;
    Alcotest.test_case "print: normalizes and reparses" `Quick test_print_module;
    Alcotest.test_case "eval: order by" `Quick test_order_by;
    Alcotest.test_case "eval: limit clause prunes results" `Quick test_limit_clause;
    Alcotest.test_case "eval: any-edge wildcard" `Quick test_any_edge;
    Alcotest.test_case "eval: ancestry crosses the archive boundary" `Quick
      test_ancestry_across_archive_boundary;
    Alcotest.test_case "plan: selective name equality uses the name index" `Quick
      test_plan_uses_name_probe;
    Alcotest.test_case "plan: attr probe, scan fallback, pseudo-attrs" `Quick
      test_plan_attr_probe_and_scan;
    Alcotest.test_case "plan: cross-binding equality becomes a hash join" `Quick
      test_plan_hash_join;
    Alcotest.test_case "plan: unbound variable is a plan error" `Quick
      test_plan_unbound_variable;
    Alcotest.test_case "explain: golden plan rendering (est and actual)" `Quick
      test_explain_golden;
    Alcotest.test_case "explain: a walk is estimated when read" `Quick
      test_walk_estimate_deferred;
    Alcotest.test_case "exec: prefix probe keeps only glob-matching names" `Quick
      test_prefix_probe_filters_aliases;
    Alcotest.test_case "plan: NAME records in any case are indexed" `Quick
      test_lowercase_name_record_indexed;
    Alcotest.test_case "eval: path steps match attributes case-insensitively" `Quick
      test_step_attr_case;
    Alcotest.test_case "exec: row order and explain golden (Linux compile)" `Quick
      test_row_order_golden;
    Alcotest.test_case "explain: a walk from known starts estimates its actual" `Quick
      test_known_start_estimates;
    Alcotest.test_case "exec: closures list rows in breadth-first order" `Quick
      test_closure_bfs_order;
    Alcotest.test_case "exec: closures match Provdb's own walks (Linux compile)" `Quick
      test_closures_match_oracles;
    Alcotest.test_case "exec: a closure faults the archive in partway" `Quick
      test_closure_across_archive_midwalk;
    Alcotest.test_case "eval: glob with many stars does not backtrack" `Quick
      test_glob_many_stars;
  ]
  @ qcheck_cases
