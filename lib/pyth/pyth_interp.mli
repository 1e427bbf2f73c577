(** Pyth interpreter core: a tree-walking evaluator parameterised over a
    [host] — the file, module, print and CPU hooks through which every
    effect flows (so the provenance-aware build can interpose). *)

type host = {
  read_file : string -> string;
  write_file : string -> string -> unit;
  listdir : string -> string list;
  module_source : string -> string option;  (** import: name -> source *)
  print : string -> unit;
  cpu : int -> unit;
}

exception Runtime_error of string

val error : ('a, unit, string, 'b) format4 -> 'a

type t = {
  host : host;
  globals : Pyth_value.env;
  modules : (string, Pyth_value.t) Hashtbl.t;  (** import cache *)
  mutable on_import : string -> Pyth_value.t -> unit;  (** Provwrap hook *)
  mutable call_count : int;
}

val call : t -> Pyth_value.t -> Pyth_value.t list -> Pyth_value.t
(** Apply a Func or Builtin value; used by builtins taking callbacks. *)

val create : host:host -> globals:Pyth_value.env -> unit -> t
val run_string : t -> string -> unit
