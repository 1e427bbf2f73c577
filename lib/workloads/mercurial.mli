(** The Mercurial-activity workload (Table 2, row 3): start from a source
    tree and apply a series of patches.  Each application writes a
    temporary, merges patch and original into it, and renames it over the
    original — the metadata-heavy pattern behind the paper's highest
    elapsed-time overhead. *)

type params = { tree_files : int; patches : int; files_per_patch : int }

val default : params

val run : ?params:params -> System.t -> parent:int -> unit
