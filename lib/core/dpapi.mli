(** The Disclosed Provenance API (DPAPI).

    The DPAPI is the central API inside PASSv2 (paper, Section 5.2).  It
    allows transfer of provenance both among the components of the system
    and between layers.  It consists of six calls —
    [pass_read], [pass_write], [pass_freeze], [pass_mkobj],
    [pass_reviveobj] and [pass_sync] — and two concepts: the pnode number
    ({!Pnode.t}) and the provenance record ({!Record.t}). *)

type error =
  | Enoent
  | Eio
  | Ebadf
  | Einval
  | Estale
  | Enospc
  | Eexist
  | Ecrashed
  | Eagain
  | Emsg of string

val error_to_string : error -> string

val of_errno : Vfs.errno -> error
(** The DPAPI error a file-system errno surfaces as: [EBADF] reads as a
    stale handle, and the directory-shape errnos ([ENOTDIR], [EISDIR],
    [ENOTEMPTY]) as [Eio]. *)

val to_errno : error -> Vfs.errno
(** The errno a DPAPI error surfaces as on a VFS face; [Emsg] is [EIO]. *)

type handle = { pnode : Pnode.t; volume : string option }
(** A handle names an object.  Files carry the volume they live on; virtual
    objects (processes, pipes, browser sessions, data sets) carry
    [volume = None] until the distributor assigns one. *)

val handle : ?volume:string -> Pnode.t -> handle

type read_result = { data : string; r_pnode : Pnode.t; r_version : int }
(** What [pass_read] returns: the data plus the exact identity (pnode and
    version as of the moment of the read) of what was read. *)

type bundle_entry = { target : handle; records : Record.t list }

type bundle = bundle_entry list
(** An array of object handles and records, each potentially describing a
    different object, sent as a single unit. *)

val entry : handle -> Record.t list -> bundle_entry

type endpoint = {
  pass_read : handle -> off:int -> len:int -> (read_result, error) result;
  pass_write : handle -> off:int -> data:string option -> bundle -> (int, error) result;
  pass_freeze : handle -> (int, error) result;
  pass_mkobj : volume:string option -> (handle, error) result;
  pass_reviveobj : Pnode.t -> int -> (handle, error) result;
  pass_sync : handle -> (unit, error) result;
}
(** One DPAPI party.  Layers compose by wrapping a lower endpoint. *)

val disclose : endpoint -> handle -> Record.t list -> (unit, error) result
(** [disclose ep target records] sends a provenance-only [pass_write]. *)

val traced : tracer:Pvtrace.t -> layer:string -> endpoint -> endpoint
(** [traced ~tracer ~layer ep] wraps each of the six operations in a
    pvtrace span named ["<layer>.<op>"] carrying the subject pnode; an
    [Error e] sets the span outcome to the lowercased errno.  Returns
    [ep] unchanged when [tracer] is disabled. *)

val encode_bundle : Buffer.t -> bundle -> unit
val decode_bundle : string -> int ref -> bundle

val bundle_size : bundle -> int
(** Encoded size in bytes, computed without encoding; used by PA-NFS to decide whether a transaction
    is needed (the 64 KB rule of Section 6.1.2). *)
