(** Kepler's provenance recording interface (paper, Section 6.2).

    Kepler records provenance for all communication between workflow
    operators into a text file or relational tables; the paper adds the
    third option — transmitting it into PASSv2 via the DPAPI.  The DPAPI
    backend creates a PASS object per operator (NAME/TYPE/PARAMS), an
    ancestry record per message, and links source/sink file accesses to
    the files PASS knows. *)

module Libpass = Pass_core.Libpass

type event =
  | Operator_created of { actor : string; params : (string * string) list }
  | Transfer of { from_actor : string; to_actor : string; port : string }
  | File_read of { actor : string; path : string }
  | File_written of { actor : string; path : string }
  | Run_started of string
  | Run_finished of string

type t = { record : event -> unit; finish : unit -> unit }

val null : t

val text : write_line:(string -> unit) -> t
(** The text-file backend: one line per event. *)

type relational = {
  mutable operators : (string * string) list;
  mutable transfers : (string * string) list;
  mutable file_events : (string * string * string) list;
}

val relational : unit -> t * relational
(** The relational backend: rows collected per table. *)

val pass : lp:Libpass.t -> Process.t -> t
(** The DPAPI backend (the paper's contribution), disclosing through
    [lp] about the files the process names. *)
