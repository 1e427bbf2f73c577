(** libpass: the user-level DPAPI library.

    Application developers make applications provenance-aware by issuing
    DPAPI calls through libpass (paper, Sections 5.1–5.2).  This module
    wraps a {!Dpapi.endpoint} (normally obtained from
    {!Observer.endpoint_for}) with conveniences and raises {!Pass_error}
    instead of returning results, matching how an application-facing
    library would behave. *)

exception Pass_error of Dpapi.error

type t

val connect : endpoint:Dpapi.endpoint -> pid:int -> t
(** [connect ~endpoint ~pid] binds libpass for the application running as
    process [pid]. *)

val pid : t -> int

val mkobj : ?volume:string -> ?typ:string -> ?name:string -> t -> Dpapi.handle
(** Create an application object (browser session, data set, operator…),
    optionally disclosing TYPE and NAME records immediately. *)

val reviveobj : t -> Pnode.t -> int -> Dpapi.handle
(** Reattach to an object created earlier via {!mkobj} (paper §5.2). *)

val disclose : t -> Dpapi.handle -> Record.t list -> unit
(** Send provenance records describing [handle]. *)

val relate : t -> child:Dpapi.handle -> parent:Dpapi.handle -> parent_version:int -> unit
(** Convenience: record that [child] descends from [parent]. *)

val read : t -> Dpapi.handle -> off:int -> len:int -> Dpapi.read_result
val write : t -> Dpapi.handle -> off:int -> data:string -> records:Record.t list -> int
val sync : t -> Dpapi.handle -> unit
