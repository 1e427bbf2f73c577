(** The Blast workload (Table 2, row 4): formatdb prepares two protein
    sequence files, blast burns CPU over them, and a chain of Perl
    scripts massages the output.  CPU-bound — provenance overhead is
    noise next to the computation. *)

type params = { sequence_bytes : int; blast_cpu_ms : int; perl_stages : int }

val run : ?params:params -> System.t -> parent:int -> unit
