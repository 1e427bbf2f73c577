(** Pnode numbers.

    A pnode number is a unique identifier assigned to an object at creation
    time.  It is the handle for the object's provenance, akin to an inode
    number, but it is never recycled (paper, Section 5.2). *)

type t
(** A pnode number. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val to_int : t -> int
(** [to_int t] exposes the raw integer, e.g. for serialization. *)

val of_int : int -> t
(** [of_int i] reconstructs a pnode from its serialized form. *)

val pp : Format.formatter -> t -> unit

type allocator
(** A pnode allocator.  Each simulated machine owns one. *)

val allocator : machine:int -> allocator
(** [allocator ~machine] creates an allocator whose pnodes are tagged with
    [machine] in their high bits, so distinct machines never collide.
    @raise Invalid_argument if [machine] is negative or too large. *)

val fresh : allocator -> t
(** [fresh alloc] returns a never-before-seen pnode. *)

val machine_of : t -> int
(** The machine id embedded in a pnode. *)
