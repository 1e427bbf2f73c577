(** Shared plumbing for the Table 2/3 workloads: chunked (4 KB) file I/O
    through the simulated kernel, process spawning, and a deterministic
    RNG so baseline and PASS runs see identical operation streams. *)

exception Error of Vfs.errno

val ok : ('a, Vfs.errno) result -> 'a

val write_file : System.t -> pid:int -> path:string -> string -> unit
val append_file : System.t -> pid:int -> path:string -> string -> unit
val read_file : System.t -> pid:int -> path:string -> string

val spawn :
  System.t ->
  ?binary:string ->
  ?argv:string list ->
  ?env:string list ->
  parent:int ->
  unit ->
  int
(** fork (+ execve when [binary] is given); returns the pid. *)

val exit : System.t -> pid:int -> unit
val cpu : System.t -> int -> unit

val payload : seed:int -> len:int -> string

type rng

val rng : int -> rng
val rand : rng -> int -> int
