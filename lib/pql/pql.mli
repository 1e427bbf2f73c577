(** PQL front end (paper, Section 5.7).

    The general structure of a PQL query is
    [select outputs from sources where condition]: sources are path
    expressions bound with [as]; path matching uses regular expressions
    over graph edges ([*], [+], [?], [( | )], [^] for inversion, [_] for
    any edge); conditions are boolean predicates with subqueries
    ([exists], [in]) and aggregation ([count]/[sum]/[min]/[max]/[avg]);
    [order by] and [limit] prune results.

    {2 Lifecycle}

    Queries run through the prepared-query engine:

    {[
      let p = Pql.Engine.prepare db "select F from Provenance.file as F" in
      Format.printf "%a@." Pql_plan.pp (Pql.Engine.explain p);
      let rows = Pql.Engine.execute p in
      ...
    ]}

    [prepare] parses and plans against the database's current index
    statistics (cheap, side-effect free); [explain] returns the chosen
    {!Pql_plan.t}; [execute] runs the plan and fills in its actual
    cardinalities, so a second [explain] shows estimated vs. actual.  A
    prepared query can be executed repeatedly; re-prepare after bulk
    loads to pick up fresh statistics.  The pre-ISSUE-9 one-shot entry
    points ([names]/[query]/[nodes], and [Pql_eval.run]) are gone —
    [Pql_eval.reference_rows] remains only as the planner's oracle. *)

type item = Pql_eval.item = Node of Pass_core.Pnode.t * int | Value of Pass_core.Pvalue.t
type row = item list

(** What failed, and in which phase. *)
type error_kind =
  | Parse_error of string  (** lexing or parsing failure *)
  | Plan_error of string  (** query cannot be planned, e.g. unbound variable *)
  | Eval_error of string  (** runtime failure while executing *)

exception Error of error_kind

val error_message : error_kind -> string
(** Human-readable rendering, prefixed with the phase. *)

val parse : string -> Pql_ast.query
(** @raise Error with [Parse_error]. *)

module Engine : sig
  type prepared

  val prepare : Provdb.t -> string -> prepared
  (** Parse and plan [input] against [db]'s index statistics.
      @raise Error with [Parse_error] or [Plan_error]. *)

  val prepare_ast : Provdb.t -> Pql_ast.query -> prepared
  (** Plan an already-parsed query (generated ASTs, tests).
      @raise Error with [Plan_error]. *)

  val explain : prepared -> Pql_plan.t
  (** The chosen plan.  Before {!execute} its cardinalities are
      estimates only; afterwards actuals are filled in. *)

  val execute : prepared -> row list
  (** Run the plan; deterministic rows, identical as a set to the naive
      oracle's.  @raise Error with [Eval_error]. *)

  val columns : prepared -> string list
  (** Output column names, derived from the SELECT clause. *)

  val text : prepared -> string
  (** The normalized query text ([Pql_print.to_string] of the AST). *)
end

val render : Provdb.t -> row list -> string list list

val pp_rows : Provdb.t -> columns:string list -> Format.formatter -> row list -> unit
(** Tabular rendering: header, rows, count — what [passctl query]
    prints. *)

val names_of_rows : Provdb.t -> row list -> string list
(** The sorted, distinct node names (or string values) a single-column
    row set holds — the projection used throughout examples and tests. *)
