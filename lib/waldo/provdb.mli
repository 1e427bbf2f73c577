(** The provenance database Waldo maintains.

    Holds the provenance graph at (object, version) granularity with the
    indexes the query engine needs.  Each node-table entry ({!slot})
    owns its node's cells, indexed by version, each holding the records
    inserted at it (its forward edges are its cross-reference records),
    and the reverse edges into the node, packed in parallel arrays.
    Beside them sit a complete name index (each node's name and every
    NAME record's string, ordered by name so a glob's literal prefix is
    one range) and an inverted attribute index with per-attribute
    cardinalities.  One insertion step maintains them:
    {!load} (restart, archive fault-in), {!ingest_entry} (log ingest),
    {!merge_into} and {!compact} insert in runs into one node, switching
    cells only when the version changes; {!verify_indexes} checks the
    result against a replay through {!add_record}.  Byte accounting
    mirrors the paper's Table 3 ({!db_bytes} for the tables,
    {!index_bytes} for the indexes).

    Reverse edges hold node-table entries ({!slot}s), not pnodes, so a
    walk hops without probing the node table; walks mark the slots they
    reach with an epoch number instead of keeping a visited table.  The
    accessors below return pnodes. *)

module Pnode = Pass_core.Pnode
module Pvalue = Pass_core.Pvalue

type node_kind = File | Virtual

type node = {
  pnode : Pnode.t;
  mutable kind : node_kind;
  mutable node_name : string option;
  mutable max_version : int;
  mutable declared : bool;
      (** Whether some layer announced the object (a Map or Mkobj frame);
          [false] for nodes that exist only because an ancestry record
          referenced them.  The pvcheck cross-layer pass keys on this. *)
  mutable floor : int;
      (** Versions below the floor were compacted into a cold-tier
          archive segment; the hot db holds [floor, max_version].  [0]
          means nothing archived.  Maintained by {!compact}, {!load}
          and {!merge_into} — not meant to be set by hand. *)
}

type t

val create : unit -> t

val set_file : t -> Pnode.t -> name:string -> unit
(** Declare [pnode] to be a file and, if it has no name yet, name it
    [name] ([""] names nothing).  A node keeps its first name: a later,
    different one is neither stored nor indexed, so the name index holds
    what a reload of the image holds. *)

val declare_virtual : t -> Pnode.t -> unit

val ingest_entry : t -> Pnode.t -> Pass_core.Record.t list -> unit
(** Insert one bundle entry's records for [pnode] as one run (log
    ingest).  They start in the node's [max_version] cell; a FREEZE [v]
    record moves itself and every record after it to version [v]. *)

val add_record : t -> Pnode.t -> version:int -> Pass_core.Record.t -> unit
(** Insert one record at (pnode, version): the record-at-a-time oracle. *)

val find_node : t -> Pnode.t -> node option
val node_count : t -> int
val quad_count : t -> int
val all_nodes : t -> node list

val compare_pv : Pnode.t * int -> Pnode.t * int -> int
(** Typed order on (pnode, version) keys (no polymorphic compare). *)

val find_by_name : t -> string -> Pnode.t list
(** Pnodes ever sighted under [name] — via {!set_file} or a string or
    bytes record whose attribute is NAME in any case — in pnode order.  A
    complete superset for name-equality predicates: the query planner
    uses it as an access path and re-checks exact semantics afterwards. *)

val find_by_name_prefix : t -> string -> keep:(string -> bool) -> Pnode.t list
(** Distinct pnodes sighted under any name that starts with [prefix] and
    satisfies [keep], in pnode order: a range probe of the ordered name
    index, equal to the sorted, deduplicated union of {!find_by_name}
    over those names.  Every string a glob matches starts with the glob's
    literal prefix (the text before its first [*] or [?]), so with [keep]
    the glob's own test this is a complete superset for that name-glob
    predicate.  Like {!find_by_name} it reads the hot tier only; callers
    fault the archive in first. *)

val name_of : t -> Pnode.t -> string option

val versions : t -> Pnode.t -> int list
(** All version numbers [0..max_version] of [pnode], resident or not. *)

val records_at : t -> Pnode.t -> version:int -> Pass_core.Record.t list
(** The records stored at (pnode, version), in ingest order. *)

val records_all : t -> Pnode.t -> Pass_core.Record.t list
(** {!records_at} over {!versions}, concatenated. *)

val iter_records_all : t -> Pnode.t -> (Pass_core.Record.t -> unit) -> unit
(** [List.iter f (records_all t p)] without building the list. *)

val out_edges : t -> Pnode.t -> version:int -> (string * Pvalue.xref) list
(** Ancestry edges leaving (pnode, version): the attribute and target of
    each cross-reference record of {!records_at}, in the same order. *)

val out_edges_all : t -> Pnode.t -> (int * string * Pvalue.xref) list
(** {!out_edges} over {!versions}, each edge with its source version. *)

val in_edges : t -> Pnode.t -> (Pnode.t * int * string * int) list
(** Who refers to [pnode]: (source pnode, source version, attribute,
    referenced version of [pnode]), in {!compare_pv} order of the source
    and in insertion order within one source cell, so a db restarted
    from an image or one that faulted its archive in lists them as the
    live db does. *)

val with_attr : t -> string -> (Pnode.t * int) list
(** Distinct (pnode, version) pairs holding at least one record whose
    attribute matches [attr] case-insensitively, in {!compare_pv} order.
    Entries are deduplicated at insert and the sorted view is memoized,
    so repeated probes no longer re-sort — and re-ingesting the same
    record (merge, fault-in, replay) no longer duplicates entries. *)

(** {2 Planner statistics}

    Cardinality inputs for the PQL cost-based planner.  These read the
    hot tier as-is and never fault the archive in: estimates must stay
    side-effect free at prepare time (execution uses the exact accessors
    above, which do fault in). *)

val file_count : t -> int
(** How many nodes are files. *)

val edge_count : t -> int
(** Ancestry records ingested, with multiplicity. *)

val name_prefix_postings : t -> string -> int
(** Posting count over every indexed name starting with [prefix] — the
    cost of a {!find_by_name_prefix} probe, without merging the
    postings. *)

val attr_cardinality : t -> string -> int
(** Distinct (pnode, version) entries under [attr] (case-insensitive)
    — the length of {!with_attr}'s result, without building it. *)

(** {2 Marked walks}

    What the query engine's closures walk: (slot, version) cells, hopping
    by slot, with visits recorded as marks on the slots. *)

type slot
(** A node-table entry: a node with the indexes keyed by its pnode. *)

val find_slot : t -> Pnode.t -> slot
(** @raise Not_found when [pnode] has no node-table entry. *)

val slot_pnode : slot -> Pnode.t

val iter_cell : t -> slot -> version:int -> (Pass_core.Record.t -> unit) -> unit
(** [List.iter f (records_at t p ~version)] for the slot of [p], without
    building the list: the query engine's forward step. *)

val iter_refs : t -> slot -> (slot -> int -> string -> unit) -> unit
(** The reverse edges into a slot, in {!in_edges} order, as (source
    slot, source version, attribute): {!in_edges} read off the slot's
    edge arrays, without a list or a node-table probe at either end.
    The query engine's inverse step. *)

val walk_cells :
  t ->
  again:(slot -> int -> bool) ->
  seed:((slot -> int -> bool) -> unit) ->
  expand:((slot -> int -> bool) -> slot -> int -> unit) ->
  unit
(** Breadth-first walk over cells.  The walk hands a [reach] function to
    [seed], which reaches the starts with it, and then to [expand]: each
    reached cell is expanded once, in the order it was reached, and
    [expand] reaches its neighbours.  [reach s v] is true when cell
    (s, v) is new to the walk.  The first version a slot is reached at is
    recorded in the slot; for any further version of it [reach] asks
    [again s v], which must answer true at most once per version: a
    version it answers false for is neither new nor expanded.
    [expand] must not start another [walk_cells] walk on the same db. *)

val serialize : t -> string
(** On-disk image of the node and record tables (indexes are rebuilt by
    {!load}), each record as a (pnode, version, record) quad, in a
    deterministic order the loader relies on: nodes in pnode order, each
    node's quads contiguous, grouped by ascending version, each
    version's in ingest order.  The current format, PROVDB4, appends an
    index-stats footer so a loader can prove its rebuilt indexes agree
    with the writer's. *)

val load : t -> string -> unit
(** [load t image] adds an image's nodes and quads to [t] in one pass,
    building every secondary index as it goes, with {!merge_into}'s
    semantics for the node table ([max_version] and [floor] take the max
    of both sides).  Only the PROVDB4 format loads; any other magic
    (the older footerless PROVDB3/PROVDB2 included) is corrupt.  The
    footer is checked against what the load added, so the image's cells
    must be new to [t] — as an archive segment's are to the hot tier it
    faults into.  Fast
    on [serialize]'s order; correct on any quad order.
    @raise Wire.Corrupt on a malformed image, or when the footer
    disagrees with the rebuilt indexes; [t] may then hold part of the
    image. *)

val deserialize : string -> t
(** [load] into a fresh db whose tables are presized from the image
    header.  @raise Wire.Corrupt as {!load}. *)

val merge_into : dst:t -> src:t -> unit
(** Merge [src] into [dst], giving the query engine a unified view over
    several volumes (e.g. the Figure 1 scenario's two NFS servers plus
    the local disk).  Version metadata is carried along: [dst] nodes
    take the max of both sides' [max_version] and [floor]. *)

val compact : t -> keep:int -> t * t
(** [compact t ~keep] splits [t] into [(hot, cold)] along the paper's
    frozen-version semantics.  Per node, all but the newest [keep]
    versions move to [cold] (this generation's archive segment); [hot]
    keeps the rest with its floor raised.  Versions below the previous
    floor are never re-emitted — earlier archive segments are
    append-only.  Both outputs carry the full node table. *)

val set_fault_handler : t -> (t -> bool) -> unit
(** Register the archive fault-in handler: called at most once per
    load (guarded by {!cold_loaded}) when a query needs versions below
    some node's floor.  The handler repopulates [t] from the cold tier
    and returns [false] on an IO failure, which re-arms the trigger. *)

val fault_in : t -> unit
(** Explicitly load archived history now (no-op without a handler,
    archived versions, or when already loaded). *)

val cold_loaded : t -> bool
(** Whether archived history has been faulted in. *)

val has_cold : t -> bool
(** Whether any node has a floor above 0 (i.e. an archive exists). *)

val db_bytes : t -> int
(** Encoded size of the node table and the stored records: each record
    its wire size plus 16 bytes for its (pnode, version) key. *)

val index_bytes : t -> int
(** Encoded size of the indexes: per name posting its length plus 12,
    per attribute posting 20, and per ancestry record 20 for its reverse
    edge.  A forward edge is the stored record itself, so it adds
    nothing here. *)

val total_bytes : t -> int

val ancestors : t -> Pnode.t -> version:int -> (Pnode.t * int) list
(** Transitive ancestor closure over ancestry edges (what [input*]
    walks). *)

val verify_indexes : t -> (unit, string) result
(** Rebuild-and-compare self-check: replays the node and record tables
    through {!add_record} into a fresh db — never through the run step
    {!load}, {!ingest_entry}, {!merge_into} and {!compact} share, so any
    db is checked against the record-at-a-time oracle — and diffs each
    index against the live one: names, attr postings and
    cardinalities, resident versions, version ranges, each node's
    reverse edges in read order, and the edge, file and quad counts and
    byte counters.  [Error msg] names the first drift found.  Faults the
    archive in first so the comparison covers the whole history. *)
