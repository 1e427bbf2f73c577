(* Abstract syntax of PQL ("pickle"), the Path Query Language of paper §5.7.

   PQL derives from Lorel.  The general structure of a query is

     select <outputs> from <sources> where <condition>

   where sources are path expressions through the provenance graph, bound
   to variables with `as`; path matching is by regular expressions over
   graph edges (closure, optional, alternation, inversion); conditions are
   boolean predicates; and the language has sub-queries and aggregation —
   the four requirements the paper lists. *)

type edge =
  | Forward of string (* follow records with this attribute, e.g. input *)
  | Inverse of string (* ^input: who depends on this node *)
  | Any_edge (* _ : any ancestry edge *)

(* Regular expressions over graph edges. *)
type path_re =
  | Edge of edge
  | Seq of path_re * path_re
  | Alt of path_re * path_re
  | Star of path_re (* zero or more *)
  | Plus of path_re (* one or more *)
  | Opt of path_re (* zero or one *)

(* Where a path starts. *)
type root =
  | Root_files (* Provenance.file *)
  | Root_processes (* Provenance.process *)
  | Root_objects (* Provenance.object: everything *)
  | Root_var of string (* a previously bound variable *)

type source = { root : root; path : path_re option; binder : string }

type expr =
  | Var of string (* the bound node itself *)
  | Attr of string * string (* X.someattr: attribute value(s) of the node *)
  | Lit of lit

and lit = L_str of string | L_int of int | L_bool of bool

type cmp = Eq | Neq | Lt | Le | Gt | Ge | Like (* ~ glob match *)

type cond =
  | Cmp of expr * cmp * expr
  | And of cond * cond
  | Or of cond * cond
  | Not of cond
  | Exists of query (* exists (select ...) *)
  | In_query of expr * query (* e in (select ...) *)

and agg = Count | Sum | Min | Max | Avg

and output = O_expr of expr | O_agg of agg * expr

and query = {
  select : output list;
  froms : source list;
  where : cond option;
  order : (expr * bool) option; (* key, descending? *)
  limit : int option; (* result pruning (the paper's §5.7 closing remark) *)
}
