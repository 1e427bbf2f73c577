(* Tests of the analyzer: duplicate elimination, cycle avoidance, freeze
   semantics; plus the PASSv1 global cycle detector baseline; plus the
   qcheck property that random workloads always yield an acyclic graph
   under both algorithms. *)

open Pass_core

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

(* the analyzer's own registry stands in for it: tests read its counters *)
let setup () =
  let ctx = Ctx.create ~machine:1 in
  let s = Helpers.sink ctx in
  let registry = Telemetry.create () in
  let an = Analyzer.create ~registry ~ctx ~lower:(Helpers.sink_endpoint s) () in
  (ctx, s, registry, Analyzer.endpoint an)

let counter registry name = Helpers.counter registry ("analyzer." ^ name)

let file ctx = Dpapi.handle ~volume:"v" (Ctx.fresh ctx)
let obj ctx = Dpapi.handle (Ctx.fresh ctx)

let test_dedup_drops_repeats () =
  let ctx, s, reg, ep = setup () in
  (* file first, process second: the edge points at an older object, so no
     freeze muddies the count *)
  let a = file ctx in
  let p = obj ctx in
  let r = Record.input_of a.pnode 0 in
  for _ = 1 to 10 do
    Helpers.ok (Dpapi.disclose ep p [ r ])
  done;
  check tint "only one record reaches storage" 1 (List.length (Helpers.all_records s));
  check tint "nine duplicates dropped" 9 (counter reg "duplicates_dropped");
  check tint "nine writes elided entirely" 9 (counter reg "writes_elided")

let test_dedup_per_version () =
  let ctx, s, _reg, ep = setup () in
  let p = obj ctx and a = file ctx in
  let r = Record.input_of a.pnode 0 in
  Helpers.ok (Dpapi.disclose ep p [ r ]);
  ignore (Helpers.ok (ep.pass_freeze p) : int);
  Helpers.ok (Dpapi.disclose ep p [ r ]);
  (* the same record is fresh again in the new version *)
  let inputs =
    List.filter (fun (_, (r : Record.t)) -> r.attr = Record.Attr.input) (Helpers.all_records s)
  in
  (* p->a twice (once per version), plus the freeze's version edge *)
  check tbool "record re-admitted after freeze" true (List.length inputs >= 3)

let test_dedup_disabled () =
  let ctx = Ctx.create ~machine:1 in
  let s = Helpers.sink ctx in
  let an = Analyzer.create ~dedup:false ~ctx ~lower:(Helpers.sink_endpoint s) () in
  let ep = Analyzer.endpoint an in
  let a = file ctx in
  let p = obj ctx in
  for _ = 1 to 5 do
    Helpers.ok (Dpapi.disclose ep p [ Record.input_of a.pnode 0 ])
  done;
  check tint "all records pass through" 5 (List.length (Helpers.all_records s))

let test_identity_records_not_cycle_checked () =
  let ctx, _s, reg, ep = setup () in
  let p = obj ctx in
  Helpers.ok (Dpapi.disclose ep p [ Record.name "foo"; Record.typ "PROCESS" ]);
  check tint "no freezes for identity records" 0 (counter reg "freezes")

let test_self_cycle_forces_freeze () =
  let ctx, _s, reg, ep = setup () in
  let a = file ctx in
  (* a depends on its own current version: must freeze *)
  Helpers.ok (Dpapi.disclose ep a [ Record.input_of a.pnode (Ctx.current_version ctx a.pnode) ]);
  check tint "freeze happened" 1 (counter reg "freezes");
  check tint "version bumped" 1 (Ctx.current_version ctx a.pnode)

let test_read_write_cycle_avoided () =
  let ctx, _s, _reg, ep = setup () in
  (* Classic 2-cycle: P reads A (P -> A), then P writes A (A -> P).
     Without intervention A.v0 -> P.v0 -> A.v0 would be cyclic. *)
  let p = obj ctx and a = file ctx in
  Helpers.ok (Dpapi.disclose ep p [ Record.input_of a.pnode (Ctx.current_version ctx a.pnode) ]);
  Helpers.ok (Dpapi.disclose ep a [ Record.input_of p.pnode (Ctx.current_version ctx p.pnode) ]);
  (* the write must land in a *newer* version of A than the one P read *)
  check tbool "A was frozen" true (Ctx.current_version ctx a.pnode > 0)

let test_closed_version_edge_allowed () =
  let ctx, _s, reg, ep = setup () in
  let b = file ctx in
  ignore (Helpers.ok (ep.pass_freeze b) : int);
  let a = file ctx in
  (* b's version 0 is closed and older than a's current: no freeze of a *)
  let freezes_before = counter reg "freezes" in
  Helpers.ok (Dpapi.disclose ep a [ Record.input_of b.pnode 0 ]);
  check tint "no extra freeze" freezes_before (counter reg "freezes")

let test_younger_childless_target_adopted () =
  (* reading a younger object with no dependencies of its own does NOT
     freeze the reader: the target's effective birth is lowered instead
     (a long-lived process reading freshly created files stays cheap) *)
  let ctx, _s, reg, ep = setup () in
  let p = obj ctx in
  let a = file ctx in
  Helpers.ok (Dpapi.disclose ep p [ Record.input_of a.pnode 0 ]);
  check tint "no freeze" 0 (counter reg "freezes");
  check tint "reader version unchanged" 0 (Ctx.current_version ctx p.pnode)

let test_younger_target_with_deps_freezes () =
  (* but once the younger target HAS dependencies, the source must be
     frozen: lowering its birth is no longer sound *)
  let ctx, _s, reg, ep = setup () in
  let p = obj ctx in
  let q = obj ctx in
  let a = file ctx in
  (* a gains a dependency (a -> q), so a@0 now has outgoing edges *)
  Helpers.ok (Dpapi.disclose ep a [ Record.input_of q.pnode 0 ]);
  Helpers.ok (Dpapi.disclose ep p [ Record.input_of a.pnode 0 ]);
  check tint "source frozen" 1 (counter reg "freezes");
  check tint "source version bumped" 1 (Ctx.current_version ctx p.pnode)

let test_dedup_capacity_epoch () =
  let ctx = Ctx.create ~machine:1 in
  let s = Helpers.sink ctx in
  let registry = Telemetry.create () in
  let an = Analyzer.create ~registry ~dedup_capacity:8 ~ctx ~lower:(Helpers.sink_endpoint s) () in
  let ep = Analyzer.endpoint an in
  let a = file ctx in
  let p = obj ctx in
  (* 20 distinct records blow through the 8-entry table *)
  for i = 1 to 20 do
    Helpers.ok (Dpapi.disclose ep p [ Record.make "PARAMS" (Pvalue.Str (string_of_int i)) ])
  done;
  check tbool "epoch evictions happened" true (counter registry "dedup_evictions" >= 1);
  (* correctness preserved: a fresh record still passes, a duplicate in the
     current epoch is still dropped *)
  Helpers.ok (Dpapi.disclose ep p [ Record.input_of a.pnode 0 ]);
  let before = counter registry "duplicates_dropped" in
  Helpers.ok (Dpapi.disclose ep p [ Record.input_of a.pnode 0 ]);
  check tbool "duplicate in current epoch dropped" true
    (counter registry "duplicates_dropped" > before)

(* Drive both the analyzer and the PASSv1 global detector with the same
   random stream of read/write events and verify both end acyclic.  Uses
   the workloads' seeded LCG so the stream is identical on every OCaml
   version (Stdlib.Random changed algorithms in 5.0). *)
let random_events n seed =
  let st = Wk.rng seed in
  List.init n (fun _ ->
      let is_read = Wk.rand st 2 = 1 in
      let p = Wk.rand st 5 in
      let f = Wk.rand st 5 in
      (is_read, p, f))

let prop_analyzer_acyclic =
  QCheck2.Test.make ~name:"analyzer: random workloads stay acyclic" ~count:60
    QCheck2.Gen.(pair (int_bound 1000) (int_range 10 120))
    (fun (seed, n) ->
      let ctx = Ctx.create ~machine:1 in
      let s = Helpers.sink ctx in
      let an = Analyzer.create ~ctx ~lower:(Helpers.sink_endpoint s) () in
      let ep = Analyzer.endpoint an in
      let procs = Array.init 5 (fun _ -> Dpapi.handle (Ctx.fresh ctx)) in
      let files = Array.init 5 (fun _ -> Dpapi.handle ~volume:"v" (Ctx.fresh ctx)) in
      List.iter
        (fun (is_read, pi, fi) ->
          let p = procs.(pi) and f = files.(fi) in
          if is_read then
            (* process reads file *)
            ignore
              (Dpapi.disclose ep p
                 [ Record.input_of f.pnode (Ctx.current_version ctx f.pnode) ]
                : (unit, Dpapi.error) result)
          else
            ignore
              (Dpapi.disclose ep f
                 [ Record.input_of p.pnode (Ctx.current_version ctx p.pnode) ]
                : (unit, Dpapi.error) result))
        (random_events n seed);
      (* Reconstruct record versions exactly the way Waldo does (FREEZE
         records advance the version), then DFS for cycles. *)
      let cur = Hashtbl.create 16 in
      let version_of p = Option.value (Hashtbl.find_opt cur p) ~default:0 in
      let edges = ref [] in
      List.iter
        (fun ((target : Dpapi.handle), (r : Record.t)) ->
          (match r.value with
          | Pvalue.Int v when r.attr = Record.Attr.freeze -> Hashtbl.replace cur target.pnode v
          | _ -> ());
          match Record.xref_of r with
          | Some x when Record.is_ancestry r ->
              edges := ((target.pnode, version_of target.pnode), (x.pnode, x.version)) :: !edges
          | _ -> ())
        (List.concat_map
           (fun (_, _, _, bundle) ->
             List.concat_map
               (fun (e : Dpapi.bundle_entry) -> List.map (fun r -> (e.target, r)) e.records)
               bundle)
           (List.rev s.writes));
      (* DFS cycle check *)
      let adj = Hashtbl.create 64 in
      List.iter
        (fun (a, b) ->
          let l = try Hashtbl.find adj a with Not_found -> [] in
          Hashtbl.replace adj a (b :: l))
        !edges;
      let color = Hashtbl.create 64 in
      let rec dfs v =
        match Hashtbl.find_opt color v with
        | Some 1 -> false
        | Some _ -> true
        | None ->
            Hashtbl.replace color v 1;
            let succ = try Hashtbl.find adj v with Not_found -> [] in
            let ok = List.for_all dfs succ in
            Hashtbl.replace color v 2;
            ok
      in
      Hashtbl.fold (fun v _ acc -> acc && dfs v) adj true)

let prop_cycle_detect_acyclic =
  QCheck2.Test.make ~name:"PASSv1 global detector: merged graph acyclic" ~count:60
    QCheck2.Gen.(pair (int_bound 1000) (int_range 10 150))
    (fun (seed, n) ->
      let cd = Cycle_detect.create () in
      let pn i = Pnode.of_int (i + 1) in
      List.iter
        (fun (is_read, pi, fi) ->
          if is_read then Cycle_detect.add_edge cd (pn pi, 0) (pn (fi + 10), 0)
          else Cycle_detect.add_edge cd (pn (fi + 10), 0) (pn pi, 0))
        (random_events n seed);
      Cycle_detect.is_acyclic cd)

let test_cycle_detect_merges () =
  let cd = Cycle_detect.create () in
  let a = (Pnode.of_int 1, 0) and b = (Pnode.of_int 2, 0) and c = (Pnode.of_int 3, 0) in
  Cycle_detect.add_edge cd a b;
  Cycle_detect.add_edge cd b c;
  Cycle_detect.add_edge cd c a;
  check tint "one merge" 1 (Cycle_detect.merges cd);
  check tbool "acyclic after merge" true (Cycle_detect.is_acyclic cd);
  check tbool "probing cost paid" true (Cycle_detect.probe_steps cd > 0)

let test_freeze_emits_version_edge () =
  let ctx, s, _reg, ep = setup () in
  let a = file ctx in
  let v = Helpers.ok (ep.pass_freeze a) in
  check tint "new version" 1 v;
  let records = Helpers.all_records s in
  let has_freeze =
    List.exists (fun (_, (r : Record.t)) -> r.attr = Record.Attr.freeze) records
  in
  let has_version_edge =
    List.exists
      (fun (_, (r : Record.t)) ->
        match Record.xref_of r with
        | Some x -> Pnode.equal x.pnode a.pnode && x.version = 0
        | None -> false)
      records
  in
  check tbool "freeze record logged" true has_freeze;
  check tbool "version edge logged" true has_version_edge

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_analyzer_acyclic; prop_cycle_detect_acyclic ]

let suite =
  [
    Alcotest.test_case "dedup drops repeated records" `Quick test_dedup_drops_repeats;
    Alcotest.test_case "dedup is per-version" `Quick test_dedup_per_version;
    Alcotest.test_case "dedup can be disabled (ablation)" `Quick test_dedup_disabled;
    Alcotest.test_case "dedup table is bounded (epoch reset)" `Quick test_dedup_capacity_epoch;
    Alcotest.test_case "identity records not cycle-checked" `Quick
      test_identity_records_not_cycle_checked;
    Alcotest.test_case "self-dependency forces freeze" `Quick test_self_cycle_forces_freeze;
    Alcotest.test_case "read/write 2-cycle avoided" `Quick test_read_write_cycle_avoided;
    Alcotest.test_case "closed-version edge needs no freeze" `Quick
      test_closed_version_edge_allowed;
    Alcotest.test_case "younger childless target adopted, no freeze" `Quick
      test_younger_childless_target_adopted;
    Alcotest.test_case "younger target with deps forces freeze" `Quick
      test_younger_target_with_deps_freezes;
    Alcotest.test_case "freeze emits marker + version edge" `Quick test_freeze_emits_version_edge;
    Alcotest.test_case "PASSv1 detector merges cycles" `Quick test_cycle_detect_merges;
  ]
  @ qcheck_cases
