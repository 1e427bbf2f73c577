(** Reconstruction of the real inter-module dependency graph.

    passarch parses every [.ml]/[.mli] under the layer map's directories
    with compiler-libs and records, per file: the head module of every
    qualified reference (idents, constructors, record fields, type
    constructors, opens, module expressions), the top-level value
    bindings with their outgoing calls, raise sites and purity-relevant
    sites, the interface's exported values and declared exceptions, and
    the [Dpapi.traced] wrapper arguments that seed the hot-path pass.

    Module names are resolved against dune library boundaries: each
    directory's [dune] file tells us the library name, whether it is
    wrapped (submodules are then only addressable through the wrapper
    module from outside the directory) and its declared library
    dependencies. *)

type call = {
  c_path : string list;  (** module path; [[]] = same-module reference *)
  c_value : string;
  c_loc : Location.t;
  c_in_try : bool;  (** lexically under a [try] body: caller handles *)
  c_cold : bool;  (** inside a raise argument or handler: off the hot path *)
}

type raise_site = {
  r_exn : string;  (** qualified where the declaration is known *)
  r_loc : Location.t;
  r_in_try : bool;
}

type hot_site = { hs_rule : string; hs_symbol : string; hs_loc : Location.t }

type binding = {
  b_name : string;  (** nested-module values are ["Sub.name"] *)
  b_loc : Location.t;
  b_calls : call list;
  b_raises : raise_site list;
  b_hot : hot_site list;
}

type file = {
  f_path : string;
  f_dir : string;
  f_module : string;
  f_intf : bool;
  f_layer : Layers.layer;
  f_mrefs : (string * Location.t) list;
      (** distinct head modules referenced, first occurrence each *)
  f_bindings : binding list;
  f_exports : string list option;  (** [.mli] values; [None] = everything *)
  f_mli_exns : string list;  (** qualified, e.g. ["Vfs.Fatal"] *)
  f_seeds : (string list * string) list;
      (** qualified value refs inside [Dpapi.traced] arguments *)
  f_vals : (string * Location.t) list;
      (** the interface's top-level [val]s with their [.mli] locations
          (attached to the implementation too); nested signatures are
          not listed *)
  f_opens : string list list;
      (** module paths opened anywhere in the file: [open M], [let open M],
          [M.( ... )], [include M] *)
  f_parse_error : bool;
}

type dir = {
  d_path : string;
  d_layer : Layers.layer;
  d_lib : string;
  d_wrapped : bool;
  d_libdeps : string list;  (** (libraries ...) across the dir's stanzas *)
  d_has_dune : bool;
  d_library : bool;  (** the dune file has a [library] stanza *)
}

type t

val scan : layers:Layers.t -> root:string -> t
(** Walk every layer directory under [root].  All recorded paths are
    relative to [root]. *)

val files : t -> file list
val dirs : t -> dir list

val dir_of_lib : t -> string -> dir option
(** The directory that builds a dune library, for dune-edge checking. *)

val resolve_head : t -> from_dir:string -> string -> dir option
(** Which scanned directory a referenced head module lives in ([None]
    for stdlib/external modules).  Wrapped libraries resolve through
    their wrapper name from other directories, and through their bare
    submodule names only from inside the same directory. *)

val resolve_call : t -> from:file -> call -> (file * string) option
(** Target of a call edge: the defining file and binding name, resolved
    through local [module X = Path] aliases and wrapped-library
    submodule paths.  [None] when the target is outside the scan. *)

val find_binding : file -> string -> binding option

val impl_by_module : t -> string -> file list
(** The [.ml] files defining a module of this name (for hot-path
    [extra_roots] seeds). *)
