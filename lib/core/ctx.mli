(** Per-machine provenance context.

    Owns the machine's pnode allocator and is the authority for the current
    version and the version birth stamp of every object the machine knows
    about.  Birth stamps drive the analyzer's local cycle-avoidance rule. *)

type t

val create : machine:int -> t
(** [create ~machine] makes a context whose pnodes are tagged with
    [machine]. *)

val fresh : t -> Pnode.t
(** Allocate a fresh pnode at version 0. *)

val adopt : t -> Pnode.t -> version:int -> unit
(** Register a pnode allocated on another machine, seeding the local view of
    its version (used by the PA-NFS client). *)

val current_version : t -> Pnode.t -> int

val birth : t -> Pnode.t -> int
(** Logical time at which the object's current version was created. *)

val birth_at : t -> Pnode.t -> version:int -> int
(** Effective birth stamp of a specific (possibly closed) version.
    Unknown old versions report 0, which is conservative for cycle
    avoidance. *)

val has_out : t -> Pnode.t -> version:int -> bool
(** Whether the version has admitted outgoing ancestry edges. *)

val mark_out : t -> Pnode.t -> version:int -> unit

val lower_birth : t -> Pnode.t -> version:int -> below:int -> unit
(** Lower a childless version's effective birth below [below] — the
    adoption step of the cycle-avoidance rule.
    @raise Assert_failure if the version already has outgoing edges. *)

val freeze : t -> Pnode.t -> int
(** Bump the object's version; returns the new version. *)

val known : t -> Pnode.t -> bool
