(* restart_query: the read side of the Provdb the other workloads write.
   Set-up runs the build generator on a local volume, drains it, takes a
   Waldo checkpoint; the timed phase restarts from a crashed disk
   (Ext3.mount + Waldo.recover), then runs a seeded closed loop of PQL
   queries, each timed as prepare + execute the way `passctl query` runs
   them:
   - 80% selective ancestry of one named object (section 5.7's shape);
   - 15% descendants of a header (fan-out);
   - 5% name-glob scans, O(graph). *)

module G = Pb_gen
module M = Pb_machine

type size = { units : int; queries : int; sampled : int }

type shape = Selective | Fanout | Glob

(* The query stream: the shapes in exact proportion and every header
   equally often, in seeded order. *)
let queries r b ~n =
  let shapes = G.balanced r ~n [ (Selective, 80); (Fanout, 15); (Glob, 5) ] in
  let headers = G.shuffle r (Array.init Pb_build.headers Fun.id) in
  let fanouts = ref 0 in
  let units = Array.length b.Pb_build.units in
  let name = Filename.basename in
  fun i ->
    match shapes.(i) with
    | Selective ->
        Printf.sprintf {|select A from Provenance.file as F F.input* as A where F.name = "%s"|}
          (name (Pb_build.obj_path (G.int r units)))
    | Fanout ->
        let h = headers.(!fanouts mod Pb_build.headers) in
        incr fanouts;
        Printf.sprintf {|select D from Provenance.file as F F.^input* as D where F.name = "%s"|}
          (name (Pb_build.header_path h))
    | Glob ->
        (* a glob a real object matches: its first two digits *)
        let u = string_of_int (G.int r units) in
        Printf.sprintf {|select F from Provenance.file as F where F.name ~ "u%s*.o"|}
          (String.sub u 0 (min 2 (String.length u)))

let canon db rows = List.sort (List.compare String.compare) (Pql.render db rows)

let setup ~traced ~seed (size : size) : Pb_round.t =
  let m = M.create ~traced ~remote:false in
  let b = Pb_build.setup m ~seed ~units:size.units in
  let scratch = ref "" in
  Array.iteri
    (fun u (s : Pb_build.unit_spec) ->
      Pb_build.compile b u ~obj:(G.payload ~seed:s.obj_seed ~len:(2 * s.src_len)) ~source:scratch)
    b.units;
  let r = G.rng ~seed ~stream:3 in
  let db = ref (Provdb.create ()) in
  (* a seeded sample of queries is re-run through the naive oracle *)
  let sample = Hashtbl.create 64 in
  let sr = G.rng ~seed ~stream:4 in
  while Hashtbl.length sample < min size.sampled size.queries do
    Hashtbl.replace sample (G.int sr size.queries) ()
  done;
  let checked = ref [] in
  let examined = ref 0 and returned = ref 0 in
  let text_of = queries r b ~n:size.queries in
  let gen i : Pb_round.op =
    let text = text_of i in
    let prepared = ref None and rows = ref [] in
    {
      run =
        (fun () ->
          let p =
            Pvtrace.span m.tr ~layer:"pql" ~op:"prepare" (fun () -> Pql.Engine.prepare !db text)
          in
          prepared := Some p;
          rows := Pvtrace.span m.tr ~layer:"pql" ~op:"execute" (fun () -> Pql.Engine.execute p));
      check =
        (fun () ->
          (match !prepared with
          | Some p ->
              let plan = Pql.Engine.explain p in
              List.iter (fun (s : Pql_plan.step) -> examined := !examined + s.actual) plan.steps;
              returned := !returned + List.length !rows
          | None -> ());
          if Hashtbl.mem sample i then checked := (text, !rows) :: !checked;
          (* every query shape names a node that exists, so none is empty *)
          match !rows with [] -> false | _ :: _ -> true);
    }
  in
  let oracle () =
    List.for_all
      (fun (text, rows) ->
        let want = Pql_eval.reference_rows !db (Pql.parse text) in
        List.equal (List.equal String.equal) (canon !db rows) (canon !db want))
      !checked
  in
  {
    m; n_ops = size.queries; gen; restart_first = true; adopt = (fun d -> db := d);
    user_bytes = (fun () -> Pb_build.user_bytes b);
    verify =
      (fun () ->
        [ ("sampled queries match the naive evaluator", oracle ()) ]);
    extra =
      (fun () ->
        [ ("pql.examined_per_row",
           if !returned = 0 then 0. else float_of_int !examined /. float_of_int !returned) ]);
  }
