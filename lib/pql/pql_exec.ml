(* Plan execution for PQL (ISSUE 9).

   Runs a Pql_plan over the Provdb, reusing the naive evaluator's
   machinery (eval_path / eval_cond / in_class / root_items / project)
   for every semantic decision.  What differs from the naive pipeline is purely
   structural:

   - independent bindings (class roots) are computed ONCE, not once per
     environment;
   - index probes (name equality, name-glob prefix range, attribute
     equality) replace class scans when the planner chose them, with
     pushed predicates re-applied exactly, so probes only narrow; the
     prefix range keeps only the names its glob matches;
   - dependent walks (Var_step with a path) are memoized per distinct
     start item — a hash join of the environment set against the walk
     relation;
   - cross-binding equality predicates run as hash joins instead of
     filtering the cartesian product.

   Together these turn the selective-ancestry pattern
   [select A from Provenance.file as F, F.input* as A where F.name = k]
   from O(|graph| closures) into one index probe plus one closure:
   O(result). *)

open Pql_ast
module E = Pql_eval
module P = Pql_plan

(* the class members among [pnodes], at their max version *)
let of_class db root pnodes =
  List.filter_map
    (fun p ->
      match Provdb.find_node db p with
      | Some n when E.in_class db root n -> Some (E.Node (p, n.max_version))
      | Some _ | None -> None)
    pnodes

(* the distinct pnodes of an attribute's postings, in pnode order *)
let attr_pnodes db a = List.sort_uniq Provdb.Pnode.compare (List.map fst (Provdb.with_attr db a))

(* candidate items of an independent step's access, before path/pushed *)
let access_items db (step : P.step) =
  match step.access with
  | P.Scan Root_processes ->
      (* the TYPE posting list is a superset of every process node:
         is_process needs a TYPE record, hence a posting *)
      Provdb.fault_in db;
      of_class db Root_processes (attr_pnodes db "TYPE")
  | P.Scan root -> E.root_items db [] root
  | P.Name_probe (root, s) ->
      (* alias sightings can live in archived history: settle it first
         so the probe sees the complete index *)
      Provdb.fault_in db;
      of_class db root (Provdb.find_by_name db s)
  | P.Name_prefix (root, prefix) ->
      (* every value [b.name] takes is an indexed name of b, so a name
         in the range the step's glob does not match selects nothing *)
      let keep =
        match Pql_planner.name_glob step.binder step.pushed with
        | Some pat -> E.glob_match pat
        | None -> Fun.const true
      in
      Provdb.fault_in db;
      of_class db root (Provdb.find_by_name_prefix db prefix ~keep)
  | P.Attr_probe (root, a) ->
      (* with_attr faults the archive in itself *)
      of_class db root (attr_pnodes db a)
  | P.Var_step _ -> invalid_arg "access_items: dependent step"

(* pushed conjuncts only mention this binder, so a singleton environment
   evaluates them exactly *)
let apply_pushed db (step : P.step) items =
  match step.pushed with
  | [] -> items
  | pushed ->
      List.filter (fun it -> List.for_all (E.eval_cond db [ (step.binder, it) ]) pushed) items

(* Each environment extended by [binder] bound to each of its endpoints,
   in order, built in one pass. *)
let[@tail_mod_cons] rec bind_each binder endpoints = function
  | [] -> []
  | env :: rest -> bind_env binder endpoints env (endpoints env) rest

and[@tail_mod_cons] bind_env binder endpoints env its rest =
  match its with
  | [] -> bind_each binder endpoints rest
  | it :: its -> ((binder, it) :: env) :: bind_env binder endpoints env its rest

let run db (q : query) (plan : P.t) =
  let step_envs envs (step : P.step) =
    match step.access with
    | P.Var_step v ->
        let memo = E.Items.create 64 in
        let expand start =
          match E.Items.find_opt memo start with
          | Some endpoints -> endpoints
          | None ->
              let endpoints =
                match step.path with
                | None -> [ start ]
                | Some p -> E.eval_path db p [ start ]
              in
              let endpoints = apply_pushed db step endpoints in
              E.Items.replace memo start endpoints;
              endpoints
        in
        let envs' = bind_each step.binder (fun env -> expand (E.lookup env v)) envs in
        step.actual <- E.Items.fold (fun _ eps acc -> acc + List.length eps) memo 0;
        envs'
    | _ -> (
        let candidates =
          match step.path with
          | None -> access_items db step
          | Some p -> E.eval_path db p (access_items db step)
        in
        let candidates = apply_pushed db step candidates in
        step.actual <- List.length candidates;
        match step.join with
        | None ->
            List.concat_map
              (fun env -> List.map (fun it -> (step.binder, it) :: env) candidates)
              envs
        | Some (probe_key, build_key) ->
            (* index candidates so matches extend environments in
               candidate order, exactly like the nested loop would *)
            let arr = Array.of_list candidates in
            let table = E.Items.create (Array.length arr * 2) in
            Array.iteri
              (fun i it ->
                List.iter
                  (fun k ->
                    E.Items.replace table k
                      (i :: (match E.Items.find_opt table k with Some l -> l | None -> [])))
                  (E.eval_expr db [ (step.binder, it) ] build_key))
              arr;
            List.concat_map
              (fun env ->
                E.eval_expr db env probe_key
                |> List.concat_map (fun kv ->
                       match E.Items.find_opt table kv with
                       | Some idxs -> idxs
                       | None -> [])
                |> List.sort_uniq Int.compare
                |> List.map (fun i -> (step.binder, arr.(i)) :: env))
              envs)
  in
  let envs = List.fold_left step_envs [ [] ] plan.P.steps in
  let envs =
    match plan.P.residual with
    | None -> envs
    | Some c -> List.filter (fun env -> E.eval_cond db env c) envs
  in
  let rows = E.apply_limit q (E.project db q envs) in
  plan.P.actual_rows <- List.length rows;
  rows
