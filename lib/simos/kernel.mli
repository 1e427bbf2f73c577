(** The simulated OS kernel.

    Hosts a process table, per-process file descriptors, pipes, a mount
    table, and the system-call layer.  When provenance-aware, every
    relevant system call is intercepted and reported to the observer —
    the call set of paper Section 5.3: execve, fork, exit, read, write,
    mmap, open, pipe, and drop_inode.  Each volume is mounted at
    [/<name>]; the first component of an absolute path selects it. *)

module Dpapi = Pass_core.Dpapi
module Ctx = Pass_core.Ctx
module Observer = Pass_core.Observer
module Analyzer = Pass_core.Analyzer
module Distributor = Pass_core.Distributor
module Clock = Simdisk.Clock

type t

type pass_stack = {
  observer : Observer.t;
  analyzer : Analyzer.t;
  distributor : Distributor.t;
}

type errno = Vfs.errno

val create : ?tracer:Pvtrace.t -> clock:Clock.t -> machine:int -> unit -> t

val ctx : t -> Ctx.t

val cpu : t -> int -> unit
(** Charge simulated CPU nanoseconds (workloads use this for computation). *)

val syscall_count : t -> int
val pass_stack : t -> pass_stack option

val mount :
  t ->
  name:string ->
  ops:Vfs.ops ->
  ?endpoint:Dpapi.endpoint ->
  ?file_handle:(Vfs.ino -> (Dpapi.handle, Vfs.errno) result) ->
  ?flush:(unit -> (unit, Vfs.errno) result) ->
  unit ->
  unit
(** Mount a file system at [/name].  Provenance-aware volumes also supply
    their DPAPI endpoint and a file-handle resolver.  [flush] is the
    close-to-open hook of a remote file system: it is called when a file
    on this mount is closed, so write-behind buffers reach the server
    before any other client can open the file. *)

val set_pass : t -> pass_stack -> unit
(** Install the observer/analyzer/distributor chain (turns interception on). *)

val init_pid : int
(** The init process (pid 1). *)

(** {1 System calls} *)

val fork : t -> parent:int -> int
(** Returns the new child pid. *)

val execve :
  t -> pid:int -> path:string -> argv:string list -> env:string list ->
  (unit, errno) result

val exit : t -> pid:int -> (unit, errno) result

val open_file : t -> pid:int -> path:string -> create:bool -> (int, errno) result
(** Returns a file descriptor; [create] makes missing files (and parents). *)

val read : t -> pid:int -> fd:int -> len:int -> (string, errno) result
(** Reads at the descriptor's offset, advancing it; through the DPAPI when
    the volume is provenance-aware. *)

val write : t -> pid:int -> fd:int -> data:string -> (unit, errno) result
val seek : t -> pid:int -> fd:int -> off:int -> (unit, errno) result
val close : t -> pid:int -> fd:int -> (unit, errno) result
val mmap : t -> pid:int -> fd:int -> writable:bool -> (unit, errno) result

val pipe : t -> pid:int -> int
(** Returns a pipe id usable with {!pipe_read} / {!pipe_write}. *)

val pipe_write : t -> pid:int -> pipe_id:int -> data:string -> (unit, errno) result
val pipe_read : t -> pid:int -> pipe_id:int -> (string, errno) result

val mkdir_p : t -> path:string -> (unit, errno) result
val unlink : t -> pid:int -> path:string -> (unit, errno) result
val rename : t -> pid:int -> src:string -> dst:string -> (unit, errno) result
val stat : t -> path:string -> (Vfs.stat, errno) result
val readdir : t -> path:string -> (string list, errno) result

val handle_of_path : t -> string -> (Dpapi.handle, errno) result
(** The DPAPI handle of a file, for applications disclosing provenance
    about it.  Fails with EINVAL on volumes that are not provenance-aware. *)
