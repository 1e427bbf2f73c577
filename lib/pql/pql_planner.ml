(* Cost-based lowering of a PQL query to a Pql_plan (ISSUE 9).

   The planner decomposes WHERE into conjuncts, assigns each conjunct to
   the earliest FROM binding that covers its free variables (predicate
   pushdown), picks an access path per binding by comparing index
   cardinalities against a class scan, turns cross-binding equality
   conjuncts into hash joins, and estimates cardinalities from the
   Provdb's index statistics.

   Access-path selection is deliberately superset-based: a probe only
   narrows the candidate set, and the pushed conjunct is still applied
   with exact evaluator semantics afterwards, so a chosen index can make
   a query faster but never change its answer.  Probes are only legal on
   bindings without a path: a path binds the walk's *endpoints*, which a
   start-side index says nothing about.

   Estimates are order-of-magnitude heuristics, not a science: index
   probes cost their posting-list length (a name-glob prefix probe the
   postings over its range), scans cost the class table, and walks
   multiply by the graph's average ancestry out-degree.  They only need
   to rank access paths and make EXPLAIN informative.  A walk from a
   small set of known start pnodes is measured instead: the step's own
   path is run from each start at its max version, as execute runs it,
   so with nothing pushed on the walk's binder its estimate is exactly
   the items execute binds.

   That measurement is the one estimate that walks the graph, and no
   plan choice reads it (a walk's access is fixed), so it is deferred:
   the plan holds lazy estimates, and the walk runs when EXPLAIN first
   reads one, never by prepare or execute. *)

open Pql_ast

(* saturating arithmetic: estimates must not wrap *)
let sadd a b =
  let s = a + b in
  if s < 0 then max_int else s

let smul a b = if a <= 0 || b <= 0 then 0 else if a > max_int / b then max_int else a * b

(* --- free variables --------------------------------------------------------- *)

let expr_vars bound acc = function
  | Var v | Attr (v, _) -> if List.mem v bound then acc else v :: acc
  | Lit _ -> acc

let rec cond_vars bound acc = function
  | Cmp (a, _, b) -> expr_vars bound (expr_vars bound acc a) b
  | And (a, b) | Or (a, b) -> cond_vars bound (cond_vars bound acc a) b
  | Not c -> cond_vars bound acc c
  | Exists q -> query_vars bound acc q
  | In_query (e, q) -> query_vars bound (expr_vars bound acc e) q

(* subquery FROMs bind sequentially; anything they reference beyond
   their own binders is free in the enclosing scope *)
and query_vars bound acc (q : query) =
  let bound, acc =
    List.fold_left
      (fun (bound, acc) (s : source) ->
        let acc =
          match s.root with
          | Root_var v when not (List.mem v bound) -> v :: acc
          | _ -> acc
        in
        (s.binder :: bound, acc))
      (bound, acc) q.froms
  in
  let acc = match q.where with Some c -> cond_vars bound acc c | None -> acc in
  let acc =
    List.fold_left (fun acc (O_expr e | O_agg (_, e)) -> expr_vars bound acc e) acc q.select
  in
  match q.order with Some (e, _) -> expr_vars bound acc e | None -> acc

let free_vars c = List.sort_uniq String.compare (cond_vars [] [] c)

(* --- conjunct decomposition ------------------------------------------------- *)

let rec split_and = function And (a, b) -> split_and a @ split_and b | c -> [ c ]

let join_and = function
  | [] -> None
  | c :: rest -> Some (List.fold_left (fun acc c -> And (acc, c)) c rest)

(* --- sargable keys ---------------------------------------------------------- *)

(* The name/version/pnode pseudo-attributes (exact lowercase spellings)
   can hold without any record, so a record-backed index probe on them
   would not be a superset — except [name], whose every possible value
   is a sighting in the complete name index. *)
let is_pseudo = function "name" | "version" | "pnode" -> true | _ -> false

let eq_key b = function
  | Cmp (Attr (v, a), Eq, Lit l) when String.equal v b -> Some (a, l)
  | Cmp (Lit l, Eq, Attr (v, a)) when String.equal v b -> Some (a, l)
  | _ -> None

let name_key b conds =
  List.find_map
    (fun c ->
      match eq_key b c with
      | Some (a, L_str s) when String.equal (String.uppercase_ascii a) "NAME" -> Some s
      | _ -> None)
    conds

(* A glob's literal prefix: the text before its first wildcard.  Every
   string the glob matches starts with it. *)
let glob_prefix pat =
  let rec stop i =
    if i = String.length pat || pat.[i] = '*' || pat.[i] = '?' then i else stop (i + 1)
  in
  String.sub pat 0 (stop 0)

(* [b.name ~ "lit*..."] with a non-empty literal prefix is a range probe
   of the ordered name index: every value [b.name] can take is a
   sighting there, so the range is a superset of the glob's matches *)
let name_glob b conds =
  List.find_map
    (function
      | Cmp (Attr (v, a), Like, Lit (L_str pat))
        when String.equal v b
             && String.equal (String.uppercase_ascii a) "NAME"
             && glob_prefix pat <> "" ->
          Some pat
      | _ -> None)
    conds

let attr_key b conds =
  List.find_map
    (fun c ->
      match eq_key b c with Some (a, _) when not (is_pseudo a) -> Some a | _ -> None)
    conds

(* --- cardinality estimation ------------------------------------------------- *)

let avg_degree db = max 1 (Provdb.edge_count db / max 1 (Provdb.node_count db))
let graph_size db = sadd (Provdb.node_count db) (Provdb.quad_count db)

(* start-count-only guess: each edge multiplies by the average ancestry
   out-degree; closures saturate geometrically, capped by graph size *)
let rec walk_est db starts = function
  | Edge _ -> smul starts (avg_degree db)
  | Seq (a, b) -> walk_est db (walk_est db starts a) b
  | Alt (a, b) -> sadd (walk_est db starts a) (walk_est db starts b)
  | Opt p -> sadd starts (walk_est db starts p)
  | Star p -> sadd starts (closure_est db starts p)
  | Plus p -> closure_est db starts p

and closure_est db starts p = min (graph_size db) (smul (max starts (walk_est db starts p)) 4)

(* a walk from known start pnodes: run the step's own path from each
   start at its max version, as execute does, when the estimate is first
   read *)
let known_est db path pnodes =
  let walk (n : Provdb.node) =
    Pql_eval.eval_path db path [ Pql_eval.Node (n.pnode, n.max_version) ]
  in
  lazy
    (List.fold_left
       (fun acc p ->
         match Provdb.find_node db p with Some n -> sadd acc (List.length (walk n)) | None -> acc)
       0 pnodes)

(* [Lazy.map] that stays eager over a known value: only the estimates
   downstream of a deferred walk are deferred themselves *)
let lmap f x = if Lazy.is_val x then Lazy.from_val (f (Lazy.force x)) else Lazy.map f x

let scan_est db = function
  | Root_files -> Provdb.file_count db
  | Root_objects -> Provdb.node_count db
  | Root_processes ->
      (* process enumeration goes through the TYPE posting list *)
      Provdb.attr_cardinality db "TYPE"
  | Root_var _ -> 1

(* --- lowering --------------------------------------------------------------- *)

let plan db (q : query) : Pql_plan.t =
  let conjuncts = match q.where with None -> [] | Some c -> split_and c in
  let taken = Array.make (List.length conjuncts) false in
  let indexed = List.mapi (fun i c -> (i, c, free_vars c)) conjuncts in
  let rec build bound knowns env_est acc = function
    | [] -> (List.rev acc, env_est)
    | (src : source) :: rest ->
        let b = src.binder in
        (match src.root with
        | Root_var v when not (List.mem v bound) ->
            raise (Pql_eval.Error (Printf.sprintf "unbound variable %s" v))
        | _ -> ());
        (* absorb every remaining conjunct this binding covers alone *)
        let pushed =
          List.filter_map
            (fun (i, c, fv) ->
              if (not taken.(i)) && fv <> [] && List.for_all (String.equal b) fv then begin
                taken.(i) <- true;
                Some c
              end
              else None)
            indexed
        in
        (* a cross-binding equality against earlier binders becomes a
           hash join (independent accesses only: a dependent walk is
           already keyed by its start) *)
        let join =
          match src.root with
          | Root_var _ -> None
          | _ ->
              List.find_map
                (fun (i, c, _) ->
                  if taken.(i) then None
                  else
                    match c with
                    | Cmp (l, Eq, r) -> (
                        let lv = List.sort_uniq String.compare (expr_vars [] [] l) in
                        let rv = List.sort_uniq String.compare (expr_vars [] [] r) in
                        match (lv, rv) with
                        | _ :: _, [ rb ]
                          when String.equal rb b && List.for_all (fun v -> List.mem v bound) lv
                          ->
                            taken.(i) <- true;
                            Some (l, r)
                        | [ lb ], _ :: _
                          when String.equal lb b && List.for_all (fun v -> List.mem v bound) rv
                          ->
                            taken.(i) <- true;
                            Some (r, l)
                        | _ -> None)
                    | _ -> None)
                indexed
        in
        (* candidate pnodes known at plan time (small name probes) let
           later walk estimates run the walk itself *)
        let access, base_est, known_here =
          match src.root with
          | Root_var v -> (Pql_plan.Var_step v, 1, None)
          | root when src.path <> None -> (Pql_plan.Scan root, scan_est db root, None)
          | root ->
              let named = Option.map (fun s -> (s, Provdb.find_by_name db s)) (name_key b pushed) in
              let candidates =
                (match named with
                | Some (s, ps) -> [ (Pql_plan.Name_probe (root, s), List.length ps) ]
                | None -> [])
                @ (match name_glob b pushed with
                  | Some pat ->
                      let p = glob_prefix pat in
                      [ (Pql_plan.Name_prefix (root, p), Provdb.name_prefix_postings db p) ]
                  | None -> [])
                @ (match attr_key b pushed with
                  | Some a ->
                      [
                        ( Pql_plan.Attr_probe (root, String.uppercase_ascii a),
                          Provdb.attr_cardinality db a );
                      ]
                  | None -> [])
                @ [ (Pql_plan.Scan root, scan_est db root) ]
              in
              let access, est =
                List.fold_left
                  (fun (ba, be) (a, e) -> if e < be then (a, e) else (ba, be))
                  (List.hd candidates) (List.tl candidates)
              in
              let known =
                match (access, named) with
                | Pql_plan.Name_probe _, Some (_, ps) when List.length ps <= 16 -> Some ps
                | _ -> None
              in
              (access, est, known)
        in
        let est, env_est' =
          match access with
          | Pql_plan.Var_step v ->
              let est =
                match src.path with
                | None -> lmap (max 1) env_est
                | Some p -> (
                    match List.assoc_opt v knowns with
                    | Some pnodes -> known_est db p pnodes
                    | _ ->
                        let w = max 1 (walk_est db 1 p) in
                        lmap (fun e -> smul (max 1 e) w) env_est)
              in
              (est, est)
          | _ ->
              let est =
                match src.path with None -> base_est | Some p -> walk_est db base_est p
              in
              ( Lazy.from_val est,
                match join with
                | Some _ -> lmap (fun e -> max (max 1 e) est) env_est
                | None -> lmap (fun e -> smul (max 1 e) est) env_est )
        in
        let step =
          {
            Pql_plan.binder = b;
            access;
            path = src.path;
            memoized = (match access with Pql_plan.Var_step _ -> src.path <> None | _ -> false);
            join;
            pushed;
            est;
            actual = -1;
          }
        in
        let knowns =
          match known_here with Some ps -> (b, ps) :: knowns | None -> knowns
        in
        build (b :: bound) knowns env_est' (step :: acc) rest
  in
  let steps, env_est = build [] [] (Lazy.from_val 1) [] q.froms in
  let residual =
    join_and
      (List.filter_map (fun (i, c, _) -> if taken.(i) then None else Some c) indexed)
  in
  let has_agg = List.exists (function O_agg _ -> true | O_expr _ -> false) q.select in
  let cap e = match q.limit with Some n when n >= 0 && n < e -> n | _ -> e in
  let est_rows = if has_agg then Lazy.from_val (cap 1) else lmap cap env_est in
  { Pql_plan.steps; residual; est_rows; actual_rows = -1 }
