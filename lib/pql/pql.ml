(* PQL front end: the prepared-query engine (ISSUE 9).

   The lifecycle is prepare -> explain/execute: [Engine.prepare] parses
   and plans against a database's index statistics, [Engine.explain]
   exposes the chosen plan, [Engine.execute] runs it (filling in the
   plan's actual-cardinality counters).  The naive evaluator survives as
   Pql_eval.reference_rows, the planner's correctness oracle.

   The typical query returns a set of values; nodes render as
   name.version so results are readable in examples and the CLI. *)

module Pnode = Pass_core.Pnode
module Pvalue = Pass_core.Pvalue

type item = Pql_eval.item = Node of Pnode.t * int | Value of Pvalue.t
type row = item list

type error_kind =
  | Parse_error of string (* lexing or parsing failure *)
  | Plan_error of string (* query can't be planned (e.g. unbound variable) *)
  | Eval_error of string (* runtime failure while executing *)

exception Error of error_kind

let error_message = function
  | Parse_error m -> "parse error: " ^ m
  | Plan_error m -> "plan error: " ^ m
  | Eval_error m -> "eval error: " ^ m

let parse input =
  try Pql_parser.parse input with
  | Pql_parser.Error msg -> raise (Error (Parse_error msg))
  | Pql_lexer.Error (msg, pos) ->
      raise (Error (Parse_error (Printf.sprintf "lex error at %d: %s" pos msg)))

let rec column_name = function
  | Pql_ast.O_expr (Pql_ast.Var v) -> v
  | Pql_ast.O_expr (Pql_ast.Attr (v, a)) -> v ^ "." ^ a
  | Pql_ast.O_expr (Pql_ast.Lit _) -> "literal"
  | Pql_ast.O_agg (agg, e) ->
      let f =
        match agg with
        | Pql_ast.Count -> "count"
        | Pql_ast.Sum -> "sum"
        | Pql_ast.Min -> "min"
        | Pql_ast.Max -> "max"
        | Pql_ast.Avg -> "avg"
      in
      Printf.sprintf "%s(%s)" f (column_name (Pql_ast.O_expr e))

module Engine = struct
  type prepared = {
    db : Provdb.t;
    ast : Pql_ast.query;
    plan : Pql_plan.t;
    columns : string list;
  }

  let prepare_ast db ast =
    let plan =
      try Pql_planner.plan db ast with Pql_eval.Error msg -> raise (Error (Plan_error msg))
    in
    { db; ast; plan; columns = List.map column_name ast.Pql_ast.select }

  let prepare db input = prepare_ast db (parse input)
  let explain p = p.plan
  let columns p = p.columns
  let text p = Pql_print.to_string p.ast

  let execute p =
    try Pql_exec.run p.db p.ast p.plan
    with Pql_eval.Error msg -> raise (Error (Eval_error msg))
end

let render_item db = function
  | Pql_eval.Value (Pvalue.Str s) -> s
  | Pql_eval.Value (Pvalue.Int i) -> string_of_int i
  | Pql_eval.Value (Pvalue.Bool b) -> string_of_bool b
  | Pql_eval.Value (Pvalue.Bytes b) -> Printf.sprintf "<%d bytes>" (String.length b)
  | Pql_eval.Value (Pvalue.Strs l) -> "[" ^ String.concat " " l ^ "]"
  | Pql_eval.Value (Pvalue.Xref x) ->
      Printf.sprintf "%s.%d"
        (Option.value (Provdb.name_of db x.pnode) ~default:(Format.asprintf "%a" Pnode.pp x.pnode))
        x.version
  | Pql_eval.Node (p, v) ->
      Printf.sprintf "%s.%d"
        (Option.value (Provdb.name_of db p) ~default:(Format.asprintf "%a" Pnode.pp p))
        v

let render db rows = List.map (fun r -> List.map (render_item db) r) rows

let pp_rows db ~columns ppf rows =
  Format.fprintf ppf "@[<v>%s@," (String.concat " | " columns);
  List.iter
    (fun r -> Format.fprintf ppf "%s@," (String.concat " | " (List.map (render_item db) r)))
    rows;
  Format.fprintf ppf "(%d rows)@]" (List.length rows)

(* Row projections used by examples and tests: the set of node names /
   pnodes a single-column row set holds. *)
let names_of_rows db rows =
  List.filter_map
    (fun row ->
      match row with
      | [ Pql_eval.Node (p, _) ] -> Provdb.name_of db p
      | [ Pql_eval.Value (Pvalue.Str s) ] -> Some s
      | _ -> None)
    rows
  |> List.sort_uniq String.compare
