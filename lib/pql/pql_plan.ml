(* Logical plan IR for PQL (ISSUE 9).

   A plan is the FROM clause lowered to a sequence of steps, one per
   binding, each annotated with the access path the planner chose, the
   predicates it pushed down, an optional hash-join key, and a
   cardinality estimate; whatever could not be pushed remains as a
   residual filter.  Estimates are lazy: one that runs a walk from known
   starts is taken when EXPLAIN first reads it, not when the query is
   prepared.
   Steps carry mutable actual-row counters so EXPLAIN after execution can
   show estimated vs. actual cardinalities. *)

open Pql_ast

type access =
  | Scan of root
      (* enumerate the class table (processes go through the TYPE
         posting list rather than testing every node) *)
  | Name_probe of root * string (* name-index lookup, then class filter *)
  | Name_prefix of root * string (* name-index range probe, then class filter *)
  | Attr_probe of root * string (* attr-index lookup, then class filter *)
  | Var_step of string (* walk from an earlier binding *)

type step = {
  binder : string;
  access : access;
  path : path_re option; (* edge walk applied to the access output *)
  memoized : bool; (* dependent walk cached per distinct start item *)
  join : (expr * expr) option;
      (* (probe key over earlier binders, build key over this binder):
         an equi-predicate executed as a hash join instead of a filter *)
  pushed : cond list; (* conjuncts applied as this binding is produced *)
  est : int Lazy.t; (* estimated items this step binds *)
  mutable actual : int; (* measured by execute; -1 = not executed *)
}

type t = {
  steps : step list;
  residual : cond option; (* conjuncts no step could absorb *)
  est_rows : int Lazy.t;
  mutable actual_rows : int; (* -1 = not executed *)
}

(* --- pretty-printing -------------------------------------------------------- *)

let root_str = function
  | Root_files -> "files"
  | Root_processes -> "processes"
  | Root_objects -> "objects"
  | Root_var v -> v

let access_str = function
  | Scan Root_processes -> "scan processes (via type index)"
  | Scan r -> "scan " ^ root_str r
  | Name_probe (r, n) -> Printf.sprintf "name-index %S -> %s" n (root_str r)
  | Name_prefix (r, p) -> Printf.sprintf "name-prefix %S -> %s" p (root_str r)
  | Attr_probe (r, a) -> Printf.sprintf "attr-index %s -> %s" a (root_str r)
  | Var_step v -> "from " ^ v

let card_str est actual =
  let est = Lazy.force est in
  if actual < 0 then Printf.sprintf "(est %d)" est
  else Printf.sprintf "(est %d, actual %d)" est actual

let pp ppf t =
  Format.fprintf ppf "@[<v>plan:";
  List.iter
    (fun s ->
      Format.fprintf ppf "@,  %s <- %s" s.binder (access_str s.access);
      (match s.path with
      | Some p ->
          Format.fprintf ppf ", walk %s" (Pql_print.path_to_string p);
          if s.memoized then Format.fprintf ppf " [memo]"
      | None -> ());
      (match s.join with
      | Some (probe, build) ->
          Format.fprintf ppf ", hash-join %s = %s" (Pql_print.expr_to_string probe)
            (Pql_print.expr_to_string build)
      | None -> ());
      Format.fprintf ppf "  %s" (card_str s.est s.actual);
      List.iter
        (fun c -> Format.fprintf ppf "@,      push %s" (Pql_print.cond_to_string c))
        s.pushed)
    t.steps;
  (match t.residual with
  | Some c -> Format.fprintf ppf "@,  residual: %s" (Pql_print.cond_to_string c)
  | None -> ());
  Format.fprintf ppf "@,  rows: %s@]" (card_str t.est_rows t.actual_rows)

let to_string t = Format.asprintf "%a" pp t
