(** PASSv1-style global cycle detection (ablation baseline).

    PASSv1 maintained a global graph of object dependencies and explicitly
    checked for cycles, merging all the nodes of a detected cycle into a
    single entity (paper, Section 5.4).  PASSv2 replaced this with the
    analyzer's local cycle avoidance; this module exists so benchmarks and
    property tests can compare the two approaches. *)

type t

type node = Pnode.t * int
(** An object at a version. *)

val create : unit -> t

val add_edge : t -> node -> node -> unit
(** [add_edge t src dst] records that [src] depends on [dst], merging the
    nodes of any cycle this would close. *)

val is_acyclic : t -> bool
(** Full acyclicity check over the merged graph (for tests). *)

val merges : t -> int
(** Number of merge operations performed. *)

val probe_steps : t -> int
(** Total DFS steps spent probing for cycles — the global work PASSv2's
    local rule avoids. *)
