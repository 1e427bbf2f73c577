(* The provenance database Waldo maintains (paper §5.6).

   PASSv1 wrote provenance directly into databases; PASSv2 writes a log
   that Waldo later moves into a database and indexes.  The database holds
   the provenance graph at (object, version) granularity:

   - a node table: pnode -> kind, latest known name, known versions;
   - a quad store: (pnode, version, attribute, value);
   - a forward edge index: (pnode, version) -> ancestry cross-references;
   - a reverse edge index: pnode -> who refers to it;
   - a name index: name -> set of pnodes (every name sighting), ordered
     by name so a glob's literal prefix is a range probe;
   - an attribute inverted index: attribute -> distinct (pnode, version)
     occurrences with a per-attribute cardinality count;
   - a pnode-granular ancestry adjacency (parents/children), giving the
     query planner transitive-reachability estimates without touching
     the version-level edge tables;
   - a per-node resident-version index (which versions hold quads).

   All secondary indexes are maintained incrementally by [add_record] and
   [set_file], so every load path — deserialize, merge_into, compact,
   archive fault-in — rebuilds them for free.  Byte accounting mirrors
   Table 3: [db_bytes] is the encoded size of the node and quad tables,
   [index_bytes] the encoded size of the indexes. *)

module Pnode = Pass_core.Pnode
module Pvalue = Pass_core.Pvalue
module Record = Pass_core.Record

type node_kind = File | Virtual

type node = {
  pnode : Pnode.t;
  mutable kind : node_kind;
  mutable node_name : string option;
  mutable max_version : int;
  mutable declared : bool;
      (* true when some layer announced the object (a Map or Mkobj frame,
         via set_file/declare_virtual); false for nodes that exist only
         because an ancestry record referenced them.  pvcheck's
         cross-layer pass keys on this: a referenced-but-never-declared
         object is a dangling identity. *)
  mutable floor : int;
      (* versions below the floor were compacted into a cold-tier archive
         segment; the hot db holds [floor, max_version].  0 = nothing
         archived.  Queries that dip below a floor fault the archive in
         through the registered handler. *)
}

type quad = { q_pnode : Pnode.t; q_version : int; q_attr : string; q_value : Pvalue.t }

(* One inverted-index posting list.  Entries are deduplicated at insert
   time ([ae_seen]) and kept in reverse insertion order; the sorted view
   handed to queries is memoized and invalidated on insert, so repeated
   [with_attr] probes stop re-sorting (ISSUE 9 small fix). *)
type attr_entry = {
  mutable ae_entries : (Pnode.t * int) list;
  ae_seen : (Pnode.t * int, unit) Hashtbl.t;
  mutable ae_sorted : (Pnode.t * int) list option;
}

module Names = Map.Make (String)
module Pnodes = Set.Make (Pnode)

type t = {
  nodes : (Pnode.t, node) Hashtbl.t;
  quads : (Pnode.t * int, quad list ref) Hashtbl.t; (* newest first *)
  fwd : (Pnode.t * int, (string * Pvalue.xref) list ref) Hashtbl.t;
  rev : (Pnode.t, (Pnode.t * int * string * int) list ref) Hashtbl.t;
  mutable names : Pnodes.t ref Names.t;
      (* string-ordered, so every name sharing a prefix is one contiguous
         range ([find_by_name_prefix]); a posting set, not a list, because
         one name can cover thousands of pnodes (every process of a build
         is named after its binary) and each sighting tests membership *)
  attrs : (string, attr_entry) Hashtbl.t;
      (* keyed by uppercased attribute, matching the evaluator's
         case-insensitive attribute semantics *)
  anc : (Pnode.t, Pnode.t list ref) Hashtbl.t; (* direct ancestry parents *)
  desc : (Pnode.t, Pnode.t list ref) Hashtbl.t; (* direct ancestry children *)
  adj_seen : (Pnode.t * Pnode.t, unit) Hashtbl.t; (* dedup for anc/desc *)
  resident : (Pnode.t, int list ref) Hashtbl.t;
      (* ascending versions that hold at least one quad *)
  versions_memo : (Pnode.t, int * int list) Hashtbl.t;
      (* memoized [0..max_version] enumeration, keyed by the max it was
         built for (ISSUE 9 small fix: no per-call re-allocation) *)
  mutable quad_count : int;
  mutable edge_count : int; (* ancestry quads ingested, with multiplicity *)
  mutable file_count : int;
  mutable db_bytes : int;
  mutable index_bytes : int;
  mutable floored : int;  (* how many nodes have floor > 0 *)
  mutable cold_loaded : bool;  (* archive history already faulted in *)
  mutable fault_handler : fault_handler option;
}

and fault_handler = t -> bool
(* Loads archived history into the db (via add_record/merge_into);
   returns false on an IO failure so the fault-in can be retried. *)

let create () =
  {
    nodes = Hashtbl.create 4096;
    quads = Hashtbl.create 8192;
    fwd = Hashtbl.create 8192;
    rev = Hashtbl.create 8192;
    names = Names.empty;
    attrs = Hashtbl.create 64;
    anc = Hashtbl.create 4096;
    desc = Hashtbl.create 4096;
    adj_seen = Hashtbl.create 8192;
    resident = Hashtbl.create 8192;
    versions_memo = Hashtbl.create 256;
    quad_count = 0;
    edge_count = 0;
    file_count = 0;
    db_bytes = 0;
    index_bytes = 0;
    floored = 0;
    cold_loaded = false;
    fault_handler = None;
  }

let multi_add tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add tbl key (ref [ v ])

let node t pnode =
  match Hashtbl.find_opt t.nodes pnode with
  | Some n -> n
  | None ->
      let n =
        { pnode; kind = Virtual; node_name = None; max_version = 0; declared = false; floor = 0 }
      in
      Hashtbl.add t.nodes pnode n;
      t.db_bytes <- t.db_bytes + 24;
      n

(* Index one name sighting.  Every alias a node was ever seen under is
   indexed (set_file names and NAME records alike, in any attribute
   case), so [find_by_name] is a complete superset for any name-equality
   predicate and [find_by_name_prefix] for any name glob — the planner
   relies on this. *)
let index_name t name pnode =
  if name <> "" then
    match Names.find_opt name t.names with
    | Some l ->
        if not (Pnodes.mem pnode !l) then begin
          l := Pnodes.add pnode !l;
          t.index_bytes <- t.index_bytes + String.length name + 12
        end
    | None ->
        t.names <- Names.add name (ref (Pnodes.singleton pnode)) t.names;
        t.index_bytes <- t.index_bytes + String.length name + 12

let set_file t pnode ~name =
  let n = node t pnode in
  (match n.kind with
  | Virtual -> t.file_count <- t.file_count + 1
  | File -> ());
  n.kind <- File;
  n.declared <- true;
  if name <> "" then begin
    (match n.node_name with
    | Some _ -> ()
    | None -> t.db_bytes <- t.db_bytes + String.length name);
    n.node_name <- Some name;
    index_name t name pnode
  end

let declare_virtual t pnode =
  let n = node t pnode in
  n.declared <- true

let encoded_record_size record =
  let buf = Buffer.create 32 in
  Record.encode buf record;
  Buffer.length buf

let attr_entry t key =
  match Hashtbl.find_opt t.attrs key with
  | Some ae -> ae
  | None ->
      let ae = { ae_entries = []; ae_seen = Hashtbl.create 64; ae_sorted = None } in
      Hashtbl.add t.attrs key ae;
      ae

(* Record a direct pnode-level ancestry edge [src -> parent].  Freeze
   edges (same pnode, earlier version) are skipped: they carry no
   cross-object reachability and would put self-loops in the adjacency. *)
let add_adjacency t src parent =
  if not (Pnode.equal src parent) && not (Hashtbl.mem t.adj_seen (src, parent)) then begin
    Hashtbl.replace t.adj_seen (src, parent) ();
    multi_add t.anc src parent;
    multi_add t.desc parent src;
    t.index_bytes <- t.index_bytes + 32
  end

let rec insert_version v = function
  | [] -> [ v ]
  | x :: _ as l when v < x -> v :: l
  | x :: rest -> x :: insert_version v rest

(* Insert one record attributed to (pnode, version). *)
let add_record t pnode ~version (record : Record.t) =
  let n = node t pnode in
  if version > n.max_version then n.max_version <- version;
  let q = { q_pnode = pnode; q_version = version; q_attr = record.attr; q_value = record.value } in
  (match Hashtbl.find_opt t.quads (pnode, version) with
  | Some l -> l := q :: !l
  | None ->
      Hashtbl.add t.quads (pnode, version) (ref [ q ]);
      (* first quad at this version: maintain the resident-version index *)
      (match Hashtbl.find_opt t.resident pnode with
      | Some l -> l := insert_version version !l
      | None -> Hashtbl.add t.resident pnode (ref [ version ])));
  t.quad_count <- t.quad_count + 1;
  let sz = encoded_record_size record in
  t.db_bytes <- t.db_bytes + sz + 16;
  let upper = String.uppercase_ascii record.attr in
  let ae = attr_entry t upper in
  if not (Hashtbl.mem ae.ae_seen (pnode, version)) then begin
    Hashtbl.replace ae.ae_seen (pnode, version) ();
    ae.ae_entries <- (pnode, version) :: ae.ae_entries;
    ae.ae_sorted <- None;
    t.index_bytes <- t.index_bytes + 20 (* attr index entry *)
  end;
  (match record.value with
  | Pvalue.Xref x when Record.is_ancestry record ->
      multi_add t.fwd (pnode, version) (record.attr, x);
      multi_add t.rev x.pnode (pnode, version, record.attr, x.version);
      let _ : node = node t x.pnode in
      t.edge_count <- t.edge_count + 1;
      add_adjacency t pnode x.pnode;
      t.index_bytes <- t.index_bytes + 40 (* fwd + rev entries *)
  | Pvalue.Str s when String.equal record.attr Record.Attr.name ->
      let n = node t pnode in
      if n.node_name = None then n.node_name <- Some s;
      index_name t s pnode
  | (Pvalue.Str s | Pvalue.Bytes s) when String.equal upper Record.Attr.name ->
      (* the evaluator reads attributes case-insensitively and globs
         match byte strings too, so these are names to a query even
         though they never become the node's own name *)
      index_name t s pnode
  | _ -> ())

(* --- cold-tier fault-in --------------------------------------------------- *)

(* Floors are only ever set through this so [floored] stays in sync. *)
let set_floor t (n : node) f =
  if n.floor = 0 && f > 0 then t.floored <- t.floored + 1
  else if n.floor > 0 && f = 0 then t.floored <- t.floored - 1;
  n.floor <- f

let set_fault_handler t f = t.fault_handler <- Some f
let cold_loaded t = t.cold_loaded
let has_cold t = t.floored > 0

(* Load archived history on first demand.  [cold_loaded] is set before
   the handler runs: the handler repopulates the db with add_record /
   merge_into, which never read back through the triggering accessors,
   and the flag keeps a recursive trigger from looping.  Floors are NOT
   cleared — they still describe which versions live in which tier —
   so the flag is the only re-trigger gate; on handler failure it is
   reset so a later query retries the IO. *)
let maybe_fault_in t =
  match t.fault_handler with
  | Some f when (not t.cold_loaded) && t.floored > 0 ->
      t.cold_loaded <- true;
      if not (f t) then t.cold_loaded <- false
  | _ -> ()

let fault_in t = maybe_fault_in t

(* --- query access -------------------------------------------------------- *)

let find_node t pnode = Hashtbl.find_opt t.nodes pnode
let node_count t = Hashtbl.length t.nodes
let quad_count t = t.quad_count

let all_nodes t = Hashtbl.fold (fun _ n acc -> n :: acc) t.nodes []

let find_by_name t name =
  match Names.find_opt name t.names with
  | Some l -> Pnodes.elements !l
  | None -> []

(* Fold over the posting sets of every indexed name starting with
   [prefix]: one contiguous range of the ordered index. *)
let fold_name_range t prefix f init =
  let rec go acc seq =
    match seq () with
    | Seq.Cons ((name, l), rest) when String.starts_with ~prefix name -> go (f acc !l) rest
    | Seq.Cons _ | Seq.Nil -> acc
  in
  go init (Names.to_seq_from prefix t.names)

let find_by_name_prefix t prefix =
  Pnodes.elements (fold_name_range t prefix Pnodes.union Pnodes.empty)

(* Typed order on (pnode, version) keys — the attr index and pvcheck sort
   with this instead of polymorphic compare. *)
let compare_pv (p, v) (p', v') =
  match Pnode.compare p p' with 0 -> Int.compare v v' | c -> c

let name_of t pnode = Option.bind (find_node t pnode) (fun n -> n.node_name)

let versions t pnode =
  match find_node t pnode with
  | None -> []
  | Some n -> (
      match Hashtbl.find_opt t.versions_memo pnode with
      | Some (hi, l) when hi = n.max_version -> l
      | _ ->
          let l = List.init (n.max_version + 1) Fun.id in
          Hashtbl.replace t.versions_memo pnode (n.max_version, l);
          l)

let resident_versions t pnode =
  match Hashtbl.find_opt t.resident pnode with Some l -> !l | None -> []

(* Raw accessors see only what is resident — serialize and compact use
   them so snapshotting the hot tier never faults the archive in. *)
let records_at_raw t pnode ~version =
  match Hashtbl.find_opt t.quads (pnode, version) with
  | Some l -> List.rev !l
  | None -> []

let out_edges_raw t pnode ~version =
  match Hashtbl.find_opt t.fwd (pnode, version) with Some l -> List.rev !l | None -> []

(* A query for a version below the node's floor needs archived history. *)
let below_floor t pnode version =
  match Hashtbl.find_opt t.nodes pnode with
  | Some n -> version < n.floor
  | None -> false

(* Whole-history accessors fault the archive in up front when the node
   has a floor, then walk the resident-version index — versions that
   never held a quad are skipped instead of probed one by one. *)
let fault_in_node_history t pnode =
  if t.floored > 0 then
    match Hashtbl.find_opt t.nodes pnode with
    | Some n when n.floor > 0 -> maybe_fault_in t
    | _ -> ()

let records_at t pnode ~version =
  if below_floor t pnode version then maybe_fault_in t;
  records_at_raw t pnode ~version

let records_all t pnode =
  fault_in_node_history t pnode;
  List.concat_map (fun v -> records_at_raw t pnode ~version:v) (resident_versions t pnode)

let out_edges t pnode ~version =
  if below_floor t pnode version then maybe_fault_in t;
  out_edges_raw t pnode ~version

let out_edges_all t pnode =
  fault_in_node_history t pnode;
  List.concat_map
    (fun v -> List.map (fun (a, x) -> (v, a, x)) (out_edges_raw t pnode ~version:v))
    (resident_versions t pnode)

let in_edges t pnode =
  (* reverse edges into [pnode] can originate from any node's archived
     versions, so the presence of any floor is reason to fault in *)
  if t.floored > 0 then maybe_fault_in t;
  match Hashtbl.find_opt t.rev pnode with Some l -> List.rev !l | None -> []

let with_attr t attr =
  if t.floored > 0 then maybe_fault_in t;
  match Hashtbl.find_opt t.attrs (String.uppercase_ascii attr) with
  | None -> []
  | Some ae -> (
      match ae.ae_sorted with
      | Some l -> l
      | None ->
          let l = List.sort compare_pv ae.ae_entries in
          ae.ae_sorted <- Some l;
          l)

let attr_value t pnode ~version attr =
  List.find_map
    (fun (q : quad) -> if String.equal q.q_attr attr then Some q.q_value else None)
    (records_at t pnode ~version)

(* --- planner statistics --------------------------------------------------- *)

(* Statistics read the hot tier as-is (no fault-in): they feed cardinality
   *estimates*, and estimation must stay side-effect free at prepare
   time.  Execution uses the exact accessors above, which do fault in. *)

let file_count t = t.file_count
let edge_count t = t.edge_count

let name_prefix_postings t prefix = fold_name_range t prefix (fun acc l -> acc + Pnodes.cardinal l) 0

let attr_cardinality t attr =
  match Hashtbl.find_opt t.attrs (String.uppercase_ascii attr) with
  | Some ae -> Hashtbl.length ae.ae_seen
  | None -> 0

let parents_of t pnode =
  match Hashtbl.find_opt t.anc pnode with Some l -> List.rev !l | None -> []

let children_of t pnode =
  match Hashtbl.find_opt t.desc pnode with Some l -> List.rev !l | None -> []

let reach tbl ?limit start =
  let cap = match limit with Some c -> c | None -> max_int in
  let seen : (Pnode.t, unit) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace seen start ();
  let queue = Queue.create () in
  Queue.add start queue;
  let out = ref [] in
  let count = ref 0 in
  while (not (Queue.is_empty queue)) && !count < cap do
    let p = Queue.pop queue in
    List.iter
      (fun next ->
        if not (Hashtbl.mem seen next) then begin
          Hashtbl.replace seen next ();
          incr count;
          out := next :: !out;
          Queue.add next queue
        end)
      (match Hashtbl.find_opt tbl p with Some l -> !l | None -> [])
  done;
  List.rev !out

let reach_ancestors t ?limit pnode = reach t.anc ?limit pnode
let reach_descendants t ?limit pnode = reach t.desc ?limit pnode

let db_bytes t = t.db_bytes
let index_bytes t = t.index_bytes
let total_bytes t = t.db_bytes + t.index_bytes

(* Merge [src] into [dst]: used by the query engine to get a unified view
   over several volumes' databases (e.g. two NFS servers plus the local
   disk in the Figure 1 scenario). *)
let merge_into ~dst ~src =
  Hashtbl.iter
    (fun _ (n : node) ->
      (match (n.kind, n.declared) with
      | File, _ -> set_file dst n.pnode ~name:(Option.value n.node_name ~default:"")
      | Virtual, true -> declare_virtual dst n.pnode
      | Virtual, false ->
          (* an undeclared stub stays a stub: merging must not launder a
             dangling reference into a declared identity *)
          let _ : node = node dst n.pnode in
          ());
      (match n.node_name with
      | Some nm when n.kind = Virtual ->
          (* preserve names of virtual objects too *)
          let d = node dst n.pnode in
          if d.node_name = None then d.node_name <- Some nm;
          index_name dst nm n.pnode
      | _ -> ());
      (* carry version metadata: the max known version can exceed the
         highest resident quad (empty versions), and the archive floor
         must survive a merge-based load *)
      let d = node dst n.pnode in
      if n.max_version > d.max_version then d.max_version <- n.max_version;
      if n.floor > d.floor then set_floor dst d n.floor)
    src.nodes;
  Hashtbl.iter
    (fun (pnode, version) quads ->
      List.iter
        (fun (q : quad) -> add_record dst pnode ~version { attr = q.q_attr; value = q.q_value })
        (List.rev !quads))
    src.quads

(* --- on-disk form ---------------------------------------------------------- *)

(* Sum of per-attribute posting-list cardinalities: part of the PROVDB4
   index-stats footer, recomputed after load to prove the rebuilt
   secondary indexes agree with the writer's. *)
let attr_entry_total t = Hashtbl.fold (fun _ ae acc -> acc + Hashtbl.length ae.ae_seen) t.attrs 0

(* Serialize the node and quad tables (secondary indexes are rebuilt on
   load, since add_record maintains them).  Deterministic order so
   persisted images are stable.  Only resident quads are written (raw
   accessors), so the hot tier snapshots without faulting the archive
   in.  Quad bytes are a pure function of which versions are resident —
   each version's quads live wholly in one tier and keep their ingest
   order — so two dbs that went through the same compaction history
   serialize identically no matter how they got there (replay, image
   load, fault-in).

   PROVDB4 appends an index-stats footer (ancestry-edge count and total
   attr-index cardinality over the written quads); deserialize recomputes
   both from its rebuilt indexes and rejects the image on mismatch, so a
   db whose incremental index maintenance drifted cannot round-trip. *)
let serialize t =
  let buf = Buffer.create 65536 in
  Wire.put_string buf "PROVDB4";
  let nodes = List.sort (fun a b -> Pnode.compare a.pnode b.pnode) (all_nodes t) in
  Wire.put_u32 buf (List.length nodes);
  List.iter
    (fun n ->
      Wire.put_i64 buf (Pnode.to_int n.pnode);
      (* kind byte: 1 = file, 2 = declared virtual, 0 = undeclared stub *)
      Wire.put_u8 buf (match (n.kind, n.declared) with
        | File, _ -> 1
        | Virtual, true -> 2
        | Virtual, false -> 0);
      Wire.put_string buf (Option.value n.node_name ~default:"");
      Wire.put_i64 buf n.max_version;
      Wire.put_i64 buf n.floor)
    nodes;
  let quads =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun v -> records_at_raw t n.pnode ~version:v)
          (List.init (n.max_version + 1) Fun.id))
      nodes
  in
  Wire.put_u32 buf (List.length quads);
  List.iter
    (fun q ->
      Wire.put_i64 buf (Pnode.to_int q.q_pnode);
      Wire.put_i64 buf q.q_version;
      Record.encode buf { Record.attr = q.q_attr; value = q.q_value })
    quads;
  Wire.put_i64 buf t.edge_count;
  Wire.put_i64 buf (attr_entry_total t);
  Buffer.contents buf

let deserialize image =
  let pos = ref 0 in
  let version =
    match Wire.get_string image pos with
    | "PROVDB4" -> 4
    | "PROVDB3" -> 3 (* pre-planner images: no index-stats footer *)
    | "PROVDB2" -> 2 (* pre-floor images, still loadable *)
    | _ -> Wire.corrupt "provdb: bad magic"
  in
  let t = create () in
  let n_nodes = Wire.get_u32 image pos in
  for _ = 1 to n_nodes do
    let pnode = Pnode.of_int (Wire.get_i64 image pos) in
    let kind = Wire.get_u8 image pos in
    let name = Wire.get_string image pos in
    let maxv = Wire.get_i64 image pos in
    let floor = if version >= 3 then Wire.get_i64 image pos else 0 in
    (match kind with
    | 1 -> set_file t pnode ~name
    | _ ->
        if kind = 2 then declare_virtual t pnode
        else begin
          let _ : node = node t pnode in
          ()
        end;
        (* virtual objects and stubs can carry names too (a merge or an
           archived NAME record gives them one) *)
        if name <> "" then begin
          let n = node t pnode in
          if n.node_name = None then n.node_name <- Some name;
          index_name t name pnode
        end);
    (* honour stored version metadata: a compacted image's floor, and a
       max_version that may exceed the highest resident quad *)
    let n = node t pnode in
    if maxv > n.max_version then n.max_version <- maxv;
    if floor > 0 then set_floor t n floor
  done;
  let n_quads = Wire.get_u32 image pos in
  for _ = 1 to n_quads do
    let pnode = Pnode.of_int (Wire.get_i64 image pos) in
    let version = Wire.get_i64 image pos in
    let record = Record.decode image pos in
    add_record t pnode ~version record
  done;
  if version >= 4 then begin
    let edges = Wire.get_i64 image pos in
    let attr_total = Wire.get_i64 image pos in
    if edges <> t.edge_count || attr_total <> attr_entry_total t then
      Wire.corrupt "provdb: index-stats footer disagrees with rebuilt indexes"
  end;
  t

(* --- version compaction ---------------------------------------------------- *)

(* Split [t] into a hot db and a cold db along the paper's frozen-version
   semantics: a version below the latest is frozen (immutable), so all
   but the newest [keep] versions of each node can move to the cold
   tier.  Per node the cutoff is [max floor (max_version - keep + 1)]:

   - versions in [floor, cutoff) — newly expired — go to the cold db,
     which becomes this generation's archive segment;
   - versions below the old floor are NOT re-emitted even when they are
     resident (faulted in): they already live in earlier segments, which
     are append-only;
   - the hot db keeps [cutoff, max_version] with its floor raised to the
     cutoff.

   Both outputs carry the full node table (node entries are a few dozen
   bytes; quads and edges are the bulk), so the hot tier can answer
   existence/name/version queries without touching the archive. *)
let compact t ~keep =
  let keep = max 1 keep in
  let hot = create () and cold = create () in
  let nodes = List.sort (fun a b -> Pnode.compare a.pnode b.pnode) (all_nodes t) in
  let copy_node dst (n : node) =
    (match (n.kind, n.declared) with
    | File, _ -> set_file dst n.pnode ~name:(Option.value n.node_name ~default:"")
    | Virtual, true -> declare_virtual dst n.pnode
    | Virtual, false ->
        let _ : node = node dst n.pnode in
        ());
    (match n.node_name with
    | Some nm when n.kind = Virtual ->
        let d = node dst n.pnode in
        if d.node_name = None then d.node_name <- Some nm;
        index_name dst nm n.pnode
    | _ -> ());
    let d = node dst n.pnode in
    if n.max_version > d.max_version then d.max_version <- n.max_version
  in
  (* node tables first so add_record below finds fully-described nodes *)
  List.iter
    (fun n ->
      copy_node hot n;
      copy_node cold n)
    nodes;
  List.iter
    (fun (n : node) ->
      let cutoff = max n.floor (max 0 (n.max_version - keep + 1)) in
      for v = n.floor to n.max_version do
        let dst = if v < cutoff then cold else hot in
        List.iter
          (fun (q : quad) ->
            add_record dst q.q_pnode ~version:v { Record.attr = q.q_attr; value = q.q_value })
          (records_at_raw t n.pnode ~version:v)
      done;
      let hn = node hot n.pnode in
      set_floor hot hn cutoff;
      (* the cold db records the segment's base so it is self-describing *)
      let cn = node cold n.pnode in
      set_floor cold cn n.floor)
    nodes;
  (hot, cold)

(* --- integrity ----------------------------------------------------------- *)

(* Acyclicity at (pnode, version) granularity — DESIGN.md invariant 1. *)
let is_acyclic t =
  let color : (Pnode.t * int, int) Hashtbl.t = Hashtbl.create 1024 in
  let rec dfs key =
    match Hashtbl.find_opt color key with
    | Some 1 -> false
    | Some _ -> true
    | None ->
        Hashtbl.replace color key 1;
        let pnode, version = key in
        let ok =
          List.for_all
            (fun (_, (x : Pvalue.xref)) -> dfs (x.pnode, x.version))
            (out_edges t pnode ~version)
        in
        Hashtbl.replace color key 2;
        ok
  in
  Hashtbl.fold (fun key _ acc -> acc && dfs key) t.fwd true

(* Transitive ancestor closure of (pnode, version): every (pnode, version)
   reachable over ancestry edges, *including* earlier versions linked by
   freeze records.  This is what `input*` ultimately walks. *)
let ancestors t pnode ~version =
  let seen = Hashtbl.create 64 in
  let rec go key =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      let p, v = key in
      List.iter (fun (_, (x : Pvalue.xref)) -> go (x.pnode, x.version)) (out_edges t p ~version:v)
    end
  in
  go (pnode, version);
  Hashtbl.remove seen (pnode, version);
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

(* --- index self-check ------------------------------------------------------ *)

(* Rebuild-and-compare: round-trip [t] through its on-disk form (which
   reconstructs every secondary index from the quad store alone) and
   diff each index against the live one.  Any drift in the incremental
   maintenance — a missed posting, a stale adjacency row, a resident
   version that leaked — shows up as a mismatch.  The chaos harness runs
   this after crash/recover and after archive fault-in. *)
let verify_indexes t =
  (* settle the archive first: probing indexes below would otherwise
     fault it in while we iterate over the very tables it repopulates *)
  if t.floored > 0 then maybe_fault_in t;
  let sorted_versions l = List.sort_uniq Int.compare l in
  let eq_pnodes = List.equal Pnode.equal in
  let eq_ints = List.equal Int.equal in
  let describe p = string_of_int (Pnode.to_int p) in
  match deserialize (serialize t) with
  | exception Wire.Corrupt msg -> Error ("round-trip rejected: " ^ msg)
  | r ->
      let problem = ref None in
      let fail msg = if !problem = None then problem := Some msg in
      if node_count t <> node_count r then
        fail
          (Printf.sprintf "node count %d (live) vs %d (rebuilt)" (node_count t) (node_count r));
      Hashtbl.iter
        (fun p (n : node) ->
          match find_node r p with
          | None -> fail ("node " ^ describe p ^ " missing after rebuild")
          | Some m ->
              if not (Option.equal String.equal n.node_name m.node_name) then
                fail ("node " ^ describe p ^ ": name index source drifted");
              if n.max_version <> m.max_version || n.floor <> m.floor then
                fail ("node " ^ describe p ^ ": version-range index drifted");
              if
                not
                  (eq_ints
                     (sorted_versions (resident_versions t p))
                     (sorted_versions (resident_versions r p)))
              then fail ("node " ^ describe p ^ ": resident-version index drifted");
              if
                not
                  (eq_pnodes
                     (List.sort Pnode.compare (parents_of t p))
                     (List.sort Pnode.compare (parents_of r p)))
              then fail ("node " ^ describe p ^ ": ancestry adjacency (parents) drifted");
              if
                not
                  (eq_pnodes
                     (List.sort Pnode.compare (children_of t p))
                     (List.sort Pnode.compare (children_of r p)))
              then fail ("node " ^ describe p ^ ": ancestry adjacency (children) drifted"))
        t.nodes;
      if Names.cardinal t.names <> Names.cardinal r.names then
        fail "name index: alias count drifted";
      Names.iter
        (fun name _ ->
          if not (eq_pnodes (find_by_name t name) (find_by_name r name)) then
            fail ("name index: entries for \"" ^ name ^ "\" drifted"))
        t.names;
      if Hashtbl.length t.attrs <> Hashtbl.length r.attrs then
        fail "attr index: attribute count drifted";
      Hashtbl.iter
        (fun attr _ ->
          if attr_cardinality t attr <> attr_cardinality r attr then
            fail ("attr index: cardinality of " ^ attr ^ " drifted")
          else if not (List.equal (fun a b -> compare_pv a b = 0) (with_attr t attr) (with_attr r attr))
          then fail ("attr index: postings for " ^ attr ^ " drifted"))
        t.attrs;
      if t.edge_count <> r.edge_count then fail "edge count drifted";
      if t.file_count <> r.file_count then fail "file count drifted";
      (match !problem with Some msg -> Error msg | None -> Ok ())
