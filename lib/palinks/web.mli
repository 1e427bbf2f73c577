(** A synthetic web for the PA-links browser.

    Provides what the Section 3.2 use cases need: pages with links,
    redirects, downloadable resources, third-party hosting, and in-place
    compromise of a download (the malware scenario). *)

type resource =
  | Page of { title : string; links : string list }
  | Download of { mutable content : string; mutable tampered : bool }
  | Redirect of string

type t

exception Not_found_404 of string
exception Redirect_loop of string

val compromise : t -> url:string -> payload:string -> unit
(** Replace a download's content in place (Eve hacks the site).
    @raise Invalid_argument if [url] is not a download. *)

val is_tampered : t -> url:string -> bool

val fetch : t -> string -> string * string list * resource
(** [fetch t url] follows redirects; returns (final url, redirect chain,
    resource).  @raise Not_found_404 / Redirect_loop. *)

val links_of : t -> string -> string list
val fetch_count : t -> int

val site_url : int -> int -> string
val download_url : int -> string -> string

val synthetic : ?sites:int -> ?pages_per_site:int -> unit -> t
(** A deterministic site graph with intra/cross-site links, downloads and
    short-link redirects. *)
