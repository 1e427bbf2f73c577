(** Pyth on the simulated OS: run programs of the mini-Python language as
    a process, with the file system reached through system calls (so PASS
    observes it) and, optionally, the PA-Python provenance wrappers of
    paper Section 6.4 enabled. *)

module V = Pyth_value

type session = {
  interp : Pyth_interp.t;
  wrappers : Provwrap.t option;
  output : Buffer.t;
}

val create : ?provenance:bool -> ?module_dir:string -> Process.t -> session
(** [provenance] (default true) enables the PA-Python wrappers when the
    kernel is provenance-aware. *)

val run : session -> string -> unit
(** Parse and execute a program.
    @raise Pyth_parser.Error | Pyth_lexer.Error | Pyth_interp.Runtime_error
    | Pyth_value.Type_error *)

val output : session -> string
(** Everything the program printed. *)
