(** PQL naive evaluator: path matching as graph reachability over the
    Provdb, conditions and aggregates over the resulting bindings.

    Since ISSUE 9 this module is internal machinery: queries execute
    through {!Pql.Engine} (which plans with [Pql_planner] and runs with
    [Pql_exec]), and this evaluator serves two roles —

    - the {e reference oracle}: {!reference_rows} is the semantics
      definition the planner's output is property-tested against;
    - the {e shared kernel}: the executor reuses {!eval_path},
      {!eval_cond}, {!eval_expr}, {!in_class}, {!root_items} and
      {!project} so the two pipelines can only disagree about which
      environments they build, never about path/predicate/projection
      semantics. *)

exception Error of string
(** Evaluation error (unbound variable, malformed use); {!Pql.Engine}
    wraps it into the typed [Pql.Error]. *)

(** A result cell: a graph node at a version, or a scalar value. *)
type item = Node of Pass_core.Pnode.t * int | Value of Pass_core.Pvalue.t

module Items : Hashtbl.S with type key = item
(** Tables keyed by items, hashed consistently with item equality. *)

type env = (string * item) list
(** The FROM clause binds variables to items; WHERE filters environments. *)

val lookup : env -> string -> item
(** The item a variable is bound to, innermost binding first.
    @raise Error ["unbound variable"] when it is not bound. *)

val is_process : Provdb.t -> Pass_core.Pnode.t -> bool
(** A node is a process if some version carries a TYPE=PROCESS record. *)

val glob_match : string -> string -> bool
(** The [~] operator: [*] and [?] wildcards, anchored at both ends. *)

val in_class : Provdb.t -> Pql_ast.root -> Provdb.node -> bool
(** Whether a node belongs to a class root: files by kind, processes by
    {!is_process}; every node is an object, and a bound variable's root
    holds whatever it is bound to. *)

val root_items : Provdb.t -> env -> Pql_ast.root -> item list
(** Enumerate a class root (files/processes/objects at their max
    version) or look up a bound variable.
    @raise Error on an unbound variable. *)

val eval_path : Provdb.t -> Pql_ast.path_re -> item list -> item list
(** Endpoints of a path regular expression from the given start items,
    deduplicated.  A closure lists its endpoints in breadth-first
    discovery order: its starts first, then each level in the order its
    items were found. *)

val eval_expr : Provdb.t -> env -> Pql_ast.expr -> item list
(** Expressions are set-valued (OEM attribute access). @raise Error. *)

val eval_cond : Provdb.t -> env -> Pql_ast.cond -> bool
(** Existential comparison semantics over set-valued expressions;
    subqueries evaluate naively under the given outer environment.
    @raise Error. *)

val project : Provdb.t -> Pql_ast.query -> env list -> item list list
(** SELECT over surviving environments: aggregation or per-environment
    cartesian product, set-semantics row dedup, ordering.  Shared by the
    planner's executor. *)

val apply_limit : Pql_ast.query -> item list list -> item list list

val reference_rows : Provdb.t -> Pql_ast.query -> item list list
(** Evaluate a parsed query naively end to end; rows in deterministic
    order.  This is the planner's correctness oracle.
    @raise Error on unbound variables or type mismatches. *)
