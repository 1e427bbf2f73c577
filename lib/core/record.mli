(** Provenance records.

    A provenance record is a structure containing a single unit of
    provenance: an attribute/value pair, where the value may be a plain
    value or a cross-reference to another object (paper, Section 5.2). *)

type t = { attr : string; value : Pvalue.t }

val make : string -> Pvalue.t -> t

val input : Pvalue.t -> t
(** [input v] is an INPUT (ancestry) record. *)

val input_of : Pnode.t -> int -> t
(** [input_of p v] records a dependency on object [p] at version [v]. *)

val name : string -> t
(** A NAME identity record. *)

val typ : string -> t
(** A TYPE identity record. *)

val equal : t -> t -> bool

val is_ancestry : t -> bool
(** [is_ancestry r] is true iff [r]'s value is a cross-reference. *)

val xref_of : t -> Pvalue.xref option
(** The cross-reference carried by [r], if any. *)

val encode : Buffer.t -> t -> unit
(** Append the wire form (shared with the WAP log and PA-NFS). *)

val encoded_size : t -> int
(** The length of {!encode}'s output for [r], computed arithmetically:
    Waldo charges every ingested record its encoded size. *)

val decode : string -> int ref -> t
(** Parse one record, advancing the position.  @raise Pvalue.Corrupt. *)

(** Standard attribute names used across the stack. *)
module Attr : sig
  val input : string
  val name : string
  val typ : string
  val argv : string
  val env : string
  val pid : string
  val freeze : string
  val begintxn : string
  val endtxn : string
  val params : string
  val visited_url : string
  val file_url : string
  val current_url : string
  val version_of : string
  val data_md5 : string
  val path : string
end

val freeze : Ctx.t -> Pnode.t -> int * t list
(** Freeze the object in the context: the new version, and the records
    that materialize it — a FREEZE record carrying the new version and an
    ancestry edge from it to the version it closed. *)

type registered = { system : string; record_type : string; description : string }

val registry : registered list
(** The record types collected by each provenance-aware application
    (paper, Table 1). *)

val registered : system:string -> record_type:string -> bool
(** [registered ~system ~record_type] checks membership in {!registry}. *)
