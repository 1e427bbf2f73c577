(** The PA-Kepler workload (Table 2, row 5): a workflow that parses
    tabular data, extracts values, and reformats them.  Over a PA-NFS
    mount this is the paper's full three-layer integration (workflow
    engine over PASS over NFS, the Figure 1 situation). *)

type params = { rows : int; runs : int; parse_cpu_ms : int }

val run : ?params:params -> System.t -> parent:int -> unit
