(** Logical plan IR for PQL.

    The FROM clause lowered to a sequence of steps — one per binding —
    each annotated with the chosen access path, pushed-down predicates,
    an optional hash-join key and a cardinality estimate, plus a
    residual filter for whatever no step could absorb.  Produced by
    [Pql_planner.plan], executed by [Pql_exec.run], rendered by
    [passctl query --explain].

    The record types are exposed so drivers (tests, the CLI's [--json])
    can inspect plan shape directly. *)

(** How a step obtains its candidate items. *)
type access =
  | Scan of Pql_ast.root
      (** Enumerate the class table.  Process roots scan the TYPE
          posting list, not the whole node table. *)
  | Name_probe of Pql_ast.root * string
      (** Name-index lookup of a pushed [b.name = "lit"] key, then class
          filter.  A superset access: the pushed predicate is still
          applied with exact evaluator semantics. *)
  | Name_prefix of Pql_ast.root * string
      (** Name-index range probe for a pushed [b.name ~ "lit*..."] glob:
          every indexed name starting with the glob's literal prefix (the
          text before its first [*] or [?]), then class filter.  A
          superset access: every string the glob matches starts with that
          prefix, and the pushed glob is re-applied exactly. *)
  | Attr_probe of Pql_ast.root * string
      (** Inverted attr-index lookup of a pushed [b.attr = lit] key,
          then class filter.  Also a superset access. *)
  | Var_step of string  (** Walk from an earlier binding. *)

type step = {
  binder : string;
  access : access;
  path : Pql_ast.path_re option;  (** edge walk applied to the access output *)
  memoized : bool;  (** dependent walk cached per distinct start item *)
  join : (Pql_ast.expr * Pql_ast.expr) option;
      (** (probe key over earlier binders, build key over this binder):
          an equi-predicate executed as a hash join instead of an
          after-the-fact filter *)
  pushed : Pql_ast.cond list;
      (** conjuncts whose free variables this binding covers, applied as
          the step produces items *)
  est : int Lazy.t;
      (** estimated items this step binds; a walk from known start
          pnodes runs its path from them when first forced (by {!pp}),
          so preparing and executing a query do not run it for the
          estimate.  That estimate equals [actual] whenever the step has
          no [pushed] conjunct and the start step binds every pnode its
          name probe returned.  Forcing it walks as execute does, so it
          can fault the archive in. *)
  mutable actual : int;  (** measured by execute; [-1] until executed *)
}

type t = {
  steps : step list;
  residual : Pql_ast.cond option;  (** conjuncts no step could absorb *)
  est_rows : int Lazy.t;  (** forced by {!pp}, like a step's [est] *)
  mutable actual_rows : int;  (** [-1] until executed *)
}

val access_str : access -> string
(** One-line rendering of an access path, as it appears in {!pp}. *)

val pp : Format.formatter -> t -> unit
(** Stable, golden-testable rendering; shows [(est n)] before execution
    and [(est n, actual m)] after.  Forces every estimate. *)

val to_string : t -> string
