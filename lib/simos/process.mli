(** A program running as process [pid] on a simulated machine: the one
    host API the Table 2 workloads and the provenance-aware applications
    (PA-Kepler, PA-Python, PA-links) run against.

    File I/O becomes the process's system calls, in 4 KB chunks as a
    real program issues them (on a provenance-aware kernel the observer
    sees each one, and the analyzer has their duplicates to eliminate).
    {!libpass} binds the process's DPAPI endpoint; {!handle_of_path} and
    {!xref} name the objects the program discloses about. *)

module Dpapi = Pass_core.Dpapi
module Libpass = Pass_core.Libpass

type t

exception Error of Vfs.errno
(** A system call of the process failed. *)

val ok : ('a, Vfs.errno) result -> 'a
(** The value of a system call's result. @raise Error *)

val v : System.t -> pid:int -> t
(** The process [pid] (already running) of the machine. *)

val spawn : System.t -> ?binary:string -> ?argv:string list -> parent:int -> unit -> t
(** fork from [parent], then execve [binary] with [argv] when given. *)

val pid : t -> int
val kernel : t -> Kernel.t

val exit : t -> unit

val cpu : t -> int -> unit
(** Charge simulated CPU nanoseconds. *)

val read_file : t -> string -> string
(** The whole file, read in 4 KB chunks. *)

val write_file : t -> string -> string -> unit
(** Create or overwrite the file in 4 KB chunks; empty data is one empty
    write. *)

val append_file : t -> string -> string -> unit
(** Seek to the file's end (creating it when missing), then write in 4 KB
    chunks. *)

val libpass : t -> Libpass.t option
(** libpass bound to this process's DPAPI endpoint; [None] on a vanilla
    kernel, where there is nothing to disclose to. *)

val handle_of_path : t -> string -> Dpapi.handle option
(** The DPAPI handle of the file at a path, when there is one. *)

val xref : t -> Dpapi.handle -> Pass_core.Pvalue.t
(** A cross-reference to the object's current version. *)
