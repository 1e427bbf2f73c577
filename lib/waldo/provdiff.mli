(** Ancestry diffing.

    Answers the paper's opening motivating question — "How does the
    ancestry of two objects differ?" — by comparing transitive ancestries
    at object granularity: ancestors unique to each side, and ancestors
    present on both sides at different versions (the Section 3.1 anomaly
    signature). *)

module Pnode = Pass_core.Pnode

type side = { s_pnode : Pnode.t; s_version : int }

type entry = {
  e_pnode : Pnode.t;
  e_name : string option;
  versions_a : int list;
  versions_b : int list;
}

type t = {
  only_a : entry list;
  only_b : entry list;
  version_changed : entry list;
  common : int;
}

val diff_versions : Provdb.t -> Pnode.t -> version_a:int -> version_b:int -> t
(** The Section 3.1 shape: two versions (runs) of the same object. *)

val diff_by_name : Provdb.t -> name_a:string -> name_b:string -> t option
(** Diff two named objects at their latest versions; [None] if either
    name is unknown. *)

val files_only : Provdb.t -> t -> t
(** Keep only file ancestors (drop per-run virtual objects, whose fresh
    pnodes would dominate a run-to-run diff). *)

val pp : Format.formatter -> t -> unit
