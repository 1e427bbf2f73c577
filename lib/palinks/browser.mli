(** PA-links: the provenance-aware text browser (paper, Section 6.3).

    Provenance is grouped by session (a PASS object created with
    pass_mkobj).  Visits produce VISITED_URL records; downloads are
    written with a pass_write carrying the data and the three records of
    Table 1 (INPUT to the session, FILE_URL, CURRENT_URL).  Sessions can
    be saved and revived across browser restarts (pass_reviveobj — the
    Firefox lesson of Section 6.5). *)

module Dpapi = Pass_core.Dpapi

type session = {
  id : int;
  handle : Dpapi.handle;
  mutable current_url : string option;
  mutable history : string list;
}

type t = {
  web : Web.t;
  proc : Process.t;
  lp : Pass_core.Libpass.t option;
  mutable sessions : session list;
  mutable next_session : int;
}

exception Browser_error of string

val create : web:Web.t -> Process.t -> t
(** On a vanilla kernel the browser still works but records nothing
    ([provenance_aware] is false) — the paper's "without layering"
    contrast. *)

val provenance_aware : t -> bool

val new_session : t -> session

val visit : t -> session -> string -> Web.resource
(** Fetch a URL (following redirects), recording every URL on the chain
    against the session. *)

val download : t -> session -> url:string -> dest:string -> string
(** Download [url] into [dest] with the three Table 1 records; returns
    the final URL.  @raise Browser_error. *)

val save_sessions : t -> path:string -> unit
(** Persist sessions (making each durable with pass_sync first).
    @raise Process.Error when the state file cannot be written. *)

val restore_sessions : t -> path:string -> unit
(** Revive saved sessions so further provenance lands on the same
    objects.  @raise Process.Error when the state file cannot be read;
    @raise Browser_error on a malformed line. *)
