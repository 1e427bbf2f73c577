(** The Linux-compile workload (Table 2, row 1): unpack a source tree and
    build it.  tar unpacks sources and headers, one cc process per
    translation unit, one ld per directory, and a final vmlinux link —
    every compile a separate execve'd process. *)

type params = { dirs : int; files_per_dir : int; headers : int; cc_cpu_ms : int }

val default : params

val run : ?params:params -> System.t -> parent:int -> unit
