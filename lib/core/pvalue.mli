(** Provenance record values.

    A value is either a plain value (integer, string, etc.) or a
    cross-reference to another object at a specific version
    (paper, Section 5.2). *)

type t =
  | Str of string
  | Int of int
  | Bool of bool
  | Bytes of string  (** opaque payload, e.g. an MD5 digest *)
  | Strs of string list  (** e.g. argv or an environment listing *)
  | Xref of xref  (** cross-reference to another object *)

and xref = { pnode : Pnode.t; version : int }

val xref : Pnode.t -> int -> t
(** [xref p v] is [Xref { pnode = p; version = v }]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

exception Corrupt of string
(** Raised by {!decode} on malformed input. *)

val encode : Buffer.t -> t -> unit
(** [encode buf v] appends the wire form of [v] to [buf].  The format is
    shared by the Lasagna WAP log and the PA-NFS protocol. *)

val encoded_size : t -> int
(** The number of bytes {!encode} appends for [v], computed without
    encoding it. *)

val decode : string -> int ref -> t
(** [decode s pos] parses one value at [!pos], advancing [pos].
    @raise Corrupt on malformed input. *)

(** Low-level wire primitives, reused by the WAP log and the PA-NFS
    protocol encoders. *)

val put_u32 : Buffer.t -> int -> unit
val put_string : Buffer.t -> string -> unit
val get_u32 : string -> int ref -> int
val get_i64 : string -> int ref -> int
val get_string : string -> int ref -> string
