(** Pyth runtime values.  Every value carries an optional provenance
    handle ([prov]) so the provenance-aware wrappers can attach DPAPI
    objects to the data flowing through a script. *)

type t = { data : data; mutable prov : Pass_core.Dpapi.handle option }

and data =
  | None_
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list ref
  | Dict of (t * t) list ref
  | Func of func
  | Builtin of string * (t list -> t)
  | Module of string * (string, t) Hashtbl.t
  | Xml of Sxml.element

and func = { fname : string; params : string list; body : Pyth_ast.block; closure : env }

and env = { vars : (string, t) Hashtbl.t; parent : env option }

exception Type_error of string

val type_error : ('a, unit, string, 'b) format4 -> 'a

(* constructors *)
val none : t
val bool_ : bool -> t
val int_ : int -> t
val float_ : float -> t
val str : string -> t
val list_ : t list -> t
val dict_ : (t * t) list -> t
val xml : Sxml.element -> t

val type_name : t -> string
val truthy : t -> bool
val equal : t -> t -> bool
val assoc_opt : t -> (t * t) list -> t option

(* coercions; raise Type_error on mismatch *)
val as_int : t -> int
val as_float : t -> float
val as_str : t -> string
val as_list : t -> t list ref
val as_xml : t -> Sxml.element

val to_string : t -> string
val repr : t -> string

(* environments *)
val new_env : ?parent:env -> unit -> env
val lookup : env -> string -> t option
val define : env -> string -> t -> unit
val assign : env -> string -> t -> unit
