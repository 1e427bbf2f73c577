(* The provenance database Waldo maintains (paper §5.6).

   PASSv1 wrote provenance directly into databases; PASSv2 writes a log
   that Waldo later moves into a database and indexes.  The database holds
   the provenance graph at (object, version) granularity:

   - a node table: pnode -> slot, the node (kind, first known name,
     known versions) with everything keyed by its pnode:
     - its resident cells, one per (pnode, version) that holds records,
       ascending by version in an array found by binary search, each
       cell holding the records inserted at it as they were ingested or
       decoded; its ancestry edges are its cross-reference records;
     - its reverse edges, who refers to it, as four parallel arrays
       (source slot, source version, attribute, referenced version), so
       a descendant walk hops from slot to slot reading arrays;
   - a name index: name -> set of pnodes (every name sighting), ordered
     by name so a glob's literal prefix is a range probe;
   - an attribute inverted index: attribute -> distinct (pnode, version)
     occurrences with a per-attribute cardinality count.

   One step builds the secondary indexes: [load] (restart, fault-in),
   [ingest_entry] (log ingest), [merge_into] and [compact] insert in runs
   through [step]; [verify_indexes] checks the result against the
   record-at-a-time oracle [add_record].  Byte accounting mirrors Table
   3: [db_bytes] is the encoded size of the node and record tables,
   [index_bytes] the encoded size of the indexes (the names, the
   attribute postings and the reverse edges; a forward edge is a stored
   record, so it costs nothing beyond its record).

   The query engine's closures walk slots ([walk_cells]) and mark them
   instead of keeping a visited table: each walk takes the next epoch
   number ([t.walks]), a slot it reaches takes that number, and the
   queue arrays are reused, so a walk builds no visited set.  Slots
   never leave the node table, so an edge array can hold them; the
   public accessors still speak pnodes. *)

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

(* One inverted-index posting list, in reverse insertion order; the
   sorted view handed to queries is memoized and invalidated on insert,
   so repeated [with_attr] probes do not re-sort. *)
type attr_entry = {
  mutable ae_entries : (Pnode.t * int) list;
  mutable ae_count : int;
  mutable ae_sorted : (Pnode.t * int) list option;
}

(* One (pnode, version) cell: the records inserted at it, shared with
   whoever ingested or decoded them. *)
type cell = {
  c_version : int;
  mutable c_records : Record.t list; (* newest first *)
  mutable c_attrs : string list;
      (* its distinct uppercased attributes, so a repeated attribute
         (every INPUT of a process) joins the posting list once *)
}

(* A node-table entry: the node and everything keyed by its pnode.  The
   reverse edges hold the slots at their other end, which were in hand
   when the edge was inserted. *)
type slot = {
  node : node;
  mutable cells : cell array; (* the first [n_cells] are resident, ascending by version *)
  mutable n_cells : int;
  mutable ref_src : slot array;
  mutable ref_srcv : int array;
  mutable ref_attr : string array;
  mutable ref_v : int array;
      (* the reverse edges into this pnode, the first [n_refs] of four
         parallel arrays: source slot, source version, attribute,
         referenced version.  Appended at insert; read in source (pnode,
         version) order, ties in insertion order ([sort_refs]). *)
  mutable n_refs : int;
  mutable refs_sorted : bool; (* the edges are in read order *)
  mutable mark : int;
      (* the last walk that reached this slot ([t.walks]), so a walk
         needs no visited table of its own *)
  mutable reached_at : int;
      (* the version a [walk_cells] walk first reached this slot at; only
         meaningful while [mark] is that walk's *)
}

module Names = Map.Make (String)
module Pnodes = Set.Make (Pnode)

type t = {
  nodes : (Pnode.t, slot) Hashtbl.t;
  mutable names : Pnodes.t ref Names.t;
      (* string-ordered, so every name sharing a prefix is one contiguous
         range ([find_by_name_prefix]); a posting set, not a list, because
         one name can cover thousands of pnodes (every process of a build
         is named after its binary) and each sighting tests membership *)
  attrs : (string, attr_entry) Hashtbl.t;
      (* keyed by uppercased attribute, matching the evaluator's
         case-insensitive attribute semantics *)
  mutable quad_count : int; (* records stored *)
  mutable edge_count : int; (* ancestry records ingested, with multiplicity *)
  mutable file_count : int;
  mutable db_bytes : int;
  mutable index_bytes : int;
  mutable floored : int;  (* how many nodes have floor > 0 *)
  mutable cold_loaded : bool;  (* archive history already faulted in *)
  mutable fault_handler : fault_handler option;
  mutable walks : int; (* walks so far: the current walk's mark *)
  mutable walk_queue : slot array; (* BFS queue reused by every walk *)
  mutable walk_versions : int array; (* the queued cells' versions, in step *)
}

and fault_handler = t -> bool
(* Loads archived history into the db (via [load]); returns false on an
   IO failure so the fault-in can be retried. *)

let create_sized ~nodes =
  {
    nodes = Hashtbl.create nodes;
    names = Names.empty;
    attrs = Hashtbl.create 64;
    quad_count = 0;
    edge_count = 0;
    file_count = 0;
    db_bytes = 0;
    index_bytes = 0;
    floored = 0;
    cold_loaded = false;
    fault_handler = None;
    walks = 0;
    walk_queue = [||];
    walk_versions = [||];
  }

let create () = create_sized ~nodes:4096

let slot t pnode =
  match Hashtbl.find t.nodes pnode with
  | s -> s
  | exception Not_found ->
      let s =
        {
          node =
            { pnode; kind = Virtual; node_name = None; max_version = 0; declared = false; floor = 0 };
          cells = [||];
          n_cells = 0;
          ref_src = [||];
          ref_srcv = [||];
          ref_attr = [||];
          ref_v = [||];
          n_refs = 0;
          refs_sorted = true;
          mark = 0;
          reached_at = 0;
        }
      in
      Hashtbl.add t.nodes pnode s;
      t.db_bytes <- t.db_bytes + 24;
      s

let node t pnode = (slot t pnode).node

(* Index one name sighting.  A node's own name and every NAME record's
   string (in any attribute case) are indexed, so [find_by_name] is a
   complete superset for any name-equality predicate and
   [find_by_name_prefix] for any name glob — the planner relies on
   this. *)
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

(* Give [n] its name unless it has one, answering whether it did.  A
   node keeps its first name: a later one (a merge of two dbs that hold
   one pnode under two names) is dropped, as a reload of the image, which
   stores one name a node, drops it.  A file's name is part of its
   node-table entry, so [db_bytes] charges it once, when the node is
   first both a file and named ([set_file] charges a name it had). *)
let name_node t n name =
  match n.node_name with
  | Some _ -> false
  | None ->
      n.node_name <- Some name;
      (match n.kind with File -> t.db_bytes <- t.db_bytes + String.length name | Virtual -> ());
      true

let set_file t pnode ~name =
  let n = node t pnode in
  (match n.kind with
  | Virtual ->
      t.file_count <- t.file_count + 1;
      n.kind <- File;
      Option.iter (fun nm -> t.db_bytes <- t.db_bytes + String.length nm) n.node_name
  | File -> ());
  n.declared <- true;
  if name <> "" && name_node t n name then index_name t name pnode

let declare_virtual t pnode =
  let n = node t pnode in
  n.declared <- true

(* Floors are only ever set through this so [floored] stays in sync. *)
let set_floor t (n : node) f =
  if n.floor = 0 && f > 0 then t.floored <- t.floored + 1
  else if n.floor > 0 && f = 0 then t.floored <- t.floored - 1;
  n.floor <- f

(* Bring one node-table entry into [t] with merge semantics: the kind and
   declaration only ever upgrade, a virtual object's name fills a gap,
   and the version range takes the max of both sides (the max known
   version can exceed the highest resident record, and an archive floor
   must survive).  Every path that copies a node table uses this: image
   load, merge_into, compact and the verify_indexes replay. *)
let absorb_node t pnode ~kind ~declared ~name ~max_version ~floor =
  (match (kind, declared) with
  | File, _ -> set_file t pnode ~name:(Option.value name ~default:"")
  | Virtual, true -> declare_virtual t pnode
  | Virtual, false ->
      (* an undeclared stub stays a stub: merging must not launder a
         dangling reference into a declared identity *)
      let _ : slot = slot t pnode in
      ());
  let n = node t pnode in
  (match (kind, name) with
  | Virtual, Some nm ->
      (* virtual objects and stubs can carry names too (a merge or an
         archived NAME record gives them one) *)
      if name_node t n nm then index_name t nm pnode
  | _ -> ());
  if max_version > n.max_version then n.max_version <- max_version;
  if floor > n.floor then set_floor t n floor

let copy_node t (n : node) =
  absorb_node t n.pnode ~kind:n.kind ~declared:n.declared ~name:n.node_name
    ~max_version:n.max_version ~floor:n.floor

let attr_entry t key =
  match Hashtbl.find_opt t.attrs key with
  | Some ae -> ae
  | None ->
      let ae = { ae_entries = []; ae_count = 0; ae_sorted = None } in
      Hashtbl.add t.attrs key ae;
      ae

(* Attributes are nearly always stored uppercase already; skip the copy. *)
let upper_attr a =
  if String.exists (fun c -> c >= 'a' && c <= 'z') a then String.uppercase_ascii a else a

(* [List.iter f (List.rev l)] without the reversed copy: cells keep
   their entries newest first, readers want them in ingest order. *)
let rec iter_oldest_first f = function
  | [] -> ()
  | x :: rest ->
      iter_oldest_first f rest;
      f x

(* [a] grown to [n] entries, the new ones [fill]. *)
let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* What [find_cell] answers for a version with no records: never
   inserted into, so its lists stay empty. *)
let no_cell = { c_version = -1; c_records = []; c_attrs = [] }

(* Where cell [version] is or would go among [s]'s cells: the index of
   the first one whose version is not below it. *)
let cell_pos s version =
  let n = s.n_cells in
  if n = 0 || s.cells.(n - 1).c_version < version then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if s.cells.(mid).c_version < version then lo := mid + 1 else hi := mid
    done;
    !lo
  end

(* The cell of [s] at [version], or [no_cell]. *)
let find_cell s version =
  let i = cell_pos s version in
  if i < s.n_cells && s.cells.(i).c_version = version then s.cells.(i) else no_cell

(* [f] on each of [s]'s resident cells, ascending by version. *)
let iter_cells s f =
  for i = 0 to s.n_cells - 1 do
    f s.cells.(i)
  done

(* The cell of (s's pnode, version), created on first use. *)
let cell s version =
  let c = find_cell s version in
  if c != no_cell then c
  else begin
    let c = { c_version = version; c_records = []; c_attrs = [] } in
    let i = cell_pos s version and n = s.n_cells in
    if n = Array.length s.cells then s.cells <- grow s.cells (max 1 (2 * n)) c;
    Array.blit s.cells i s.cells (i + 1) (n - i);
    s.cells.(i) <- c;
    s.n_cells <- n + 1;
    c
  end

(* Append a reverse edge into [p]; an edge that sorts before the last
   one marks the arrays for one stable sort at their next read. *)
let add_ref p src srcv attr v =
  let n = p.n_refs in
  if n > 0 then begin
    let c = Pnode.compare src.node.pnode p.ref_src.(n - 1).node.pnode in
    if c < 0 || (c = 0 && srcv < p.ref_srcv.(n - 1)) then p.refs_sorted <- false
  end;
  if n = Array.length p.ref_srcv then begin
    let cap = max 2 (2 * n) in
    p.ref_src <- grow p.ref_src cap src;
    p.ref_srcv <- grow p.ref_srcv cap 0;
    p.ref_attr <- grow p.ref_attr cap attr;
    p.ref_v <- grow p.ref_v cap 0
  end;
  p.ref_src.(n) <- src;
  p.ref_srcv.(n) <- srcv;
  p.ref_attr.(n) <- attr;
  p.ref_v.(n) <- v;
  p.n_refs <- n + 1

(* Put [s]'s reverse edges in read order: source (pnode, version)
   ascending, ties in insertion order.  Ingest inserts in log order,
   which is nearly always source order already, and an image load in
   source order; an archive fault-in appends older sources after newer
   ones, and one stable sort of a permutation then reorders the four
   arrays in place. *)
let sort_refs s =
  if not s.refs_sorted then begin
    let n = s.n_refs in
    let order = Array.init n Fun.id in
    Array.stable_sort
      (fun i j ->
        match Pnode.compare s.ref_src.(i).node.pnode s.ref_src.(j).node.pnode with
        | 0 -> Int.compare s.ref_srcv.(i) s.ref_srcv.(j)
        | c -> c)
      order;
    let permute a =
      let old = Array.sub a 0 n in
      Array.iteri (fun k i -> a.(k) <- old.(i)) order
    in
    permute s.ref_src;
    permute s.ref_srcv;
    permute s.ref_attr;
    permute s.ref_v;
    s.refs_sorted <- true
  end

(* Insert record [r] at [c], slot [s]'s cell of its version, updating
   every index; [size] is the record's encoded size. *)
let insert t (s : slot) (c : cell) (r : Record.t) ~size =
  let n = s.node and version = c.c_version and attr = r.attr in
  if version > n.max_version then n.max_version <- version;
  c.c_records <- r :: c.c_records;
  t.quad_count <- t.quad_count + 1;
  t.db_bytes <- t.db_bytes + size + 16;
  let upper = upper_attr attr in
  if not (List.exists (String.equal upper) c.c_attrs) then begin
    c.c_attrs <- upper :: c.c_attrs;
    let ae = attr_entry t upper in
    ae.ae_entries <- (n.pnode, version) :: ae.ae_entries;
    ae.ae_count <- ae.ae_count + 1;
    ae.ae_sorted <- None;
    t.index_bytes <- t.index_bytes + 20 (* attr index entry *)
  end;
  match r.value with
  | Pvalue.Xref x ->
      add_ref (slot t x.pnode) s version attr x.version;
      t.edge_count <- t.edge_count + 1;
      t.index_bytes <- t.index_bytes + 20 (* reverse-edge entry *)
  | Pvalue.Str str when String.equal attr Record.Attr.name ->
      let _ : bool = name_node t n str in
      index_name t str n.pnode
  | (Pvalue.Str str | Pvalue.Bytes str) when String.equal upper Record.Attr.name ->
      (* the evaluator reads attributes case-insensitively and globs
         match byte strings too, so these are names to a query even
         though they never become the node's own name *)
      index_name t str n.pnode
  | _ -> ()

(* A run of insertions into one node: its slot and its current cell. *)
type run = { r_slot : slot; mutable r_cell : cell }

let open_run (s : slot) ~version = { r_slot = s; r_cell = cell s version }

(* The one insertion step: a run costs one slot lookup, plus one cell
   lookup per version it writes. *)
let step t run ~version r ~size =
  if version <> run.r_cell.c_version then run.r_cell <- cell run.r_slot version;
  insert t run.r_slot run.r_cell r ~size

(* Copy one cell of another db as one run, sharing its records. *)
let copy_cell t pnode (c : cell) =
  let run = open_run (slot t pnode) ~version:c.c_version in
  iter_oldest_first
    (fun r -> step t run ~version:c.c_version r ~size:(Record.encoded_size r))
    c.c_records

(* The ingest-side version rule, next to [insert]'s NAME rule: a FREEZE
   v record moves itself, and the records after it, to version v. *)
let entry_version (r : Record.t) ~current =
  match r.value with
  | Pvalue.Int v when String.equal r.attr Record.Attr.freeze -> v
  | _ -> current

(* Recursion, not [List.iter]: a closure per entry outweighs a run's saving. *)
let rec ingest_run t run = function
  | [] -> ()
  | (r : Record.t) :: rest ->
      step t run
        ~version:(entry_version r ~current:run.r_cell.c_version)
        r ~size:(Record.encoded_size r);
      ingest_run t run rest

(* One bundle entry, as one run starting in the node's newest version. *)
let ingest_entry t pnode = function
  | [] -> ()
  | first :: _ as records ->
      let s = slot t pnode in
      ingest_run t (open_run s ~version:(entry_version first ~current:s.node.max_version)) records

(* The record-at-a-time oracle: no run, one cell lookup per record. *)
let add_record t pnode ~version (record : Record.t) =
  let s = slot t pnode in
  insert t s (cell s version) record ~size:(Record.encoded_size record)

(* --- cold-tier fault-in --------------------------------------------------- *)

let set_fault_handler t f = t.fault_handler <- Some f
let cold_loaded t = t.cold_loaded
let has_cold t = t.floored > 0

(* Load archived history on first demand.  [cold_loaded] is set before
   the handler runs: the handler repopulates the db with [load], which
   never reads back through the triggering accessors, and the flag keeps
   a recursive trigger from looping.  Floors are NOT cleared — they
   still describe which versions live in which tier — so the flag is the
   only re-trigger gate; on handler failure it is reset so a later query
   retries the IO. *)
let maybe_fault_in t =
  match t.fault_handler with
  | Some f when (not t.cold_loaded) && t.floored > 0 ->
      t.cold_loaded <- true;
      if not (f t) then t.cold_loaded <- false
  | _ -> ()

let fault_in t = maybe_fault_in t

(* --- query access -------------------------------------------------------- *)

(* Accessors probe with [Hashtbl.find]: a [find_opt] would allocate a
   [Some] per probe beside the one [find_node] returns, and the query
   engine probes once per candidate node. *)
let find_node t pnode =
  match Hashtbl.find t.nodes pnode with s -> Some s.node | exception Not_found -> None

let node_count t = Hashtbl.length t.nodes
let quad_count t = t.quad_count

let all_nodes t = Hashtbl.fold (fun _ s acc -> s.node :: acc) t.nodes []

let find_by_name t name =
  match Names.find_opt name t.names with
  | Some l -> Pnodes.elements !l
  | None -> []

(* Fold over every indexed name starting with [prefix], with its posting
   set: one contiguous range of the ordered index. *)
let fold_name_range t prefix f init =
  let rec go acc seq =
    match seq () with
    | Seq.Cons ((name, l), rest) when String.starts_with ~prefix name -> go (f acc name !l) rest
    | Seq.Cons _ | Seq.Nil -> acc
  in
  go init (Names.to_seq_from prefix t.names)

(* One sort-uniq over the kept names' postings, not a chain of set
   unions: a glob's range can hold hundreds of single-pnode names. *)
let find_by_name_prefix t prefix ~keep =
  List.sort_uniq Pnode.compare
    (fold_name_range t prefix
       (fun acc name l -> if keep name then Pnodes.fold List.cons l acc else acc)
       [])

(* Typed order on (pnode, version) keys — the attr index and pvcheck sort
   with this instead of polymorphic compare. *)
let compare_pv (p, v) (p', v') =
  match Pnode.compare p p' with 0 -> Int.compare v v' | c -> c

let name_of t pnode = Option.bind (find_node t pnode) (fun n -> n.node_name)

let versions t pnode =
  match Hashtbl.find t.nodes pnode with
  | exception Not_found -> []
  | s -> List.init (s.node.max_version + 1) Fun.id

(* The cell of (pnode, version), or [no_cell]. *)
let find_cell_of t pnode version =
  match Hashtbl.find t.nodes pnode with s -> find_cell s version | exception Not_found -> no_cell

(* A query for a version below the node's floor needs archived history. *)
let below_floor t pnode version =
  match Hashtbl.find t.nodes pnode with
  | s -> version < s.node.floor
  | exception Not_found -> false

(* Whole-history accessors fault the archive in up front when the node
   has a floor, then read the slot's resident cells in version order.
   Each folds [f] over the cells from the newest back, so a list it
   builds comes out oldest first. *)
let fold_history t pnode f init =
  match Hashtbl.find t.nodes pnode with
  | exception Not_found -> init
  | s ->
      if s.node.floor > 0 then maybe_fault_in t;
      let acc = ref init in
      for i = s.n_cells - 1 downto 0 do
        acc := f s.cells.(i) !acc
      done;
      !acc

let records_at t pnode ~version =
  if below_floor t pnode version then maybe_fault_in t;
  List.rev (find_cell_of t pnode version).c_records

let records_all t pnode = fold_history t pnode (fun c acc -> List.rev_append c.c_records acc) []

(* The slot-level reads a [walk_cells] walk hops with: one cell's records,
   and the reverse edges into a slot with their source slots. *)
let iter_cell t s ~version f =
  if version < s.node.floor then maybe_fault_in t;
  iter_oldest_first f (find_cell s version).c_records

let iter_refs t s f =
  (* reverse edges into [s] can originate from any node's archived
     versions, so the presence of any floor is reason to fault in *)
  if t.floored > 0 then maybe_fault_in t;
  sort_refs s;
  for i = 0 to s.n_refs - 1 do
    f s.ref_src.(i) s.ref_srcv.(i) s.ref_attr.(i)
  done

let find_slot t pnode = Hashtbl.find t.nodes pnode
let slot_pnode s = s.node.pnode

let iter_records_all t pnode f =
  match Hashtbl.find t.nodes pnode with
  | exception Not_found -> ()
  | s ->
      if s.node.floor > 0 then maybe_fault_in t;
      iter_cells s (fun c -> iter_oldest_first f c.c_records)

(* A cell's ancestry edges are its cross-reference records: folding the
   newest-first records onto [acc] lists the edges oldest first. *)
let fold_edges c edge acc =
  List.fold_left
    (fun acc (r : Record.t) ->
      match r.value with Pvalue.Xref x -> edge r.attr x :: acc | _ -> acc)
    acc c.c_records

let out_edges t pnode ~version =
  if below_floor t pnode version then maybe_fault_in t;
  fold_edges (find_cell_of t pnode version) (fun a x -> (a, x)) []

let out_edges_all t pnode =
  fold_history t pnode (fun c acc -> fold_edges c (fun a x -> (c.c_version, a, x)) acc) []

(* [s]'s reverse edges in read order, with their source pnodes. *)
let refs_of s =
  sort_refs s;
  let l = ref [] in
  for i = s.n_refs - 1 downto 0 do
    l := (s.ref_src.(i).node.pnode, s.ref_srcv.(i), s.ref_attr.(i), s.ref_v.(i)) :: !l
  done;
  !l

let in_edges t pnode =
  if t.floored > 0 then maybe_fault_in t;
  match Hashtbl.find t.nodes pnode with s -> refs_of s | exception Not_found -> []

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

(* --- planner statistics --------------------------------------------------- *)

(* Statistics read the hot tier as-is (no fault-in): they feed cardinality
   *estimates*, and estimation must stay side-effect free at prepare
   time.  Execution uses the exact accessors above, which do fault in. *)

let file_count t = t.file_count
let edge_count t = t.edge_count

let name_prefix_postings t prefix =
  fold_name_range t prefix (fun acc _ l -> acc + Pnodes.cardinal l) 0

let attr_cardinality t attr =
  match Hashtbl.find_opt t.attrs (String.uppercase_ascii attr) with
  | Some ae -> ae.ae_count
  | None -> 0

(* Breadth-first walk over (slot, version) cells: the one walk behind
   the query engine's closures.  [reach s v] queues cell (s, v) and
   answers true when the walk has not reached it yet: the first version
   a slot is reached at is kept in the slot under the walk's mark, and
   only a further version of an already-marked slot is referred to
   [again], the caller's own record of those.  [seed reach] reaches the
   starts; [expand reach] is then applied to each queued cell in order,
   which it expands by reaching its neighbours.  Slots are marked
   instead of collected in a visited table and the queue arrays are
   reused, so a walk allocates nothing per cell.  [expand] must not
   start another walk. *)
let walk_cells t ~again ~seed ~expand =
  t.walks <- t.walks + 1;
  let mark = t.walks and tail = ref 0 in
  let reach s v =
    let fresh =
      if s.mark <> mark then begin
        s.mark <- mark;
        s.reached_at <- v;
        true
      end
      else v <> s.reached_at && again s v
    in
    if fresh then begin
      let i = !tail in
      if i = Array.length t.walk_queue then begin
        let n = max 64 (2 * i) in
        let q = Array.make n s and vs = Array.make n 0 in
        Array.blit t.walk_queue 0 q 0 i;
        Array.blit t.walk_versions 0 vs 0 i;
        t.walk_queue <- q;
        t.walk_versions <- vs
      end;
      t.walk_queue.(i) <- s;
      t.walk_versions.(i) <- v;
      tail := i + 1
    end;
    fresh
  in
  seed reach;
  let expand = expand reach and head = ref 0 in
  while !head < !tail do
    let s = t.walk_queue.(!head) and v = t.walk_versions.(!head) in
    incr head;
    expand s v
  done

let db_bytes t = t.db_bytes
let index_bytes t = t.index_bytes
let total_bytes t = t.db_bytes + t.index_bytes

(* Merge [src] into [dst]: used by the query engine to get a unified view
   over several volumes' databases (e.g. two NFS servers plus the local
   disk in the Figure 1 scenario). *)
let merge_into ~dst ~src =
  Hashtbl.iter (fun _ s -> copy_node dst s.node) src.nodes;
  Hashtbl.iter (fun _ s -> iter_cells s (copy_cell dst s.node.pnode)) src.nodes

(* --- on-disk form ---------------------------------------------------------- *)

(* Sum of per-attribute posting-list cardinalities: part of the PROVDB4
   index-stats footer, recomputed after load to prove the rebuilt
   secondary indexes agree with the writer's. *)
let attr_entry_total t = Hashtbl.fold (fun _ ae acc -> acc + ae.ae_count) t.attrs 0

let sorted_slots t =
  List.sort
    (fun a b -> Pnode.compare a.node.pnode b.node.pnode)
    (Hashtbl.fold (fun _ s acc -> s :: acc) t.nodes [])

(* [f pnode version r] on every resident record, nodes in pnode order,
   each node's versions ascending, each version's records in ingest
   order: the image order. *)
let iter_quads t f =
  List.iter
    (fun s -> iter_cells s (fun c -> iter_oldest_first (f s.node.pnode c.c_version) c.c_records))
    (sorted_slots t)

(* Serialize the node and record tables (secondary indexes are rebuilt
   on load), each record as a (pnode, version, record) quad.
   Deterministic order so persisted images are stable, and [load] relies
   on it: nodes sorted, each node's quads contiguous and grouped by
   version.  Only resident records are written (the slots' cells), so
   the hot tier snapshots without faulting the archive in.  Quad bytes
   are a pure function of which versions are resident — each version's
   records live wholly in one tier and keep their ingest order — so two
   dbs that went through the same compaction history serialize
   identically no matter how they got there (replay, image load,
   fault-in).

   PROVDB4 appends an index-stats footer (ancestry-edge count and total
   attr-index cardinality over the written quads); [load] recomputes
   both from its rebuilt indexes and rejects the image on mismatch, so a
   db whose incremental index maintenance drifted cannot round-trip. *)
let serialize t =
  let buf = Buffer.create 65536 in
  Wire.put_string buf "PROVDB4";
  let slots = sorted_slots t in
  Wire.put_u32 buf (List.length slots);
  List.iter
    (fun { node = n; _ } ->
      Wire.put_i64 buf (Pnode.to_int n.pnode);
      (* kind byte: 1 = file, 2 = declared virtual, 0 = undeclared stub *)
      Wire.put_u8 buf (match (n.kind, n.declared) with
        | File, _ -> 1
        | Virtual, true -> 2
        | Virtual, false -> 0);
      Wire.put_string buf (Option.value n.node_name ~default:"");
      Wire.put_i64 buf n.max_version;
      Wire.put_i64 buf n.floor)
    slots;
  Wire.put_u32 buf t.quad_count;
  iter_quads t (fun p v r ->
      Wire.put_i64 buf (Pnode.to_int p);
      Wire.put_i64 buf v;
      Record.encode buf r);
  Wire.put_i64 buf t.edge_count;
  Wire.put_i64 buf (attr_entry_total t);
  Buffer.contents buf

let check_magic image pos =
  if not (String.equal (Wire.get_string image pos) "PROVDB4") then
    Wire.corrupt "provdb: bad magic"

(* The one-pass bulk loader.  The node table goes through [absorb_node],
   the decoded records through [step] in one run per node ([serialize]
   groups a node's quads by version), each sized by the span it was
   decoded from.
   Any other order still loads correctly, a run at a time. *)
let load t image =
  let pos = ref 0 in
  check_magic image pos;
  let n_nodes = Wire.get_u32 image pos in
  for _ = 1 to n_nodes do
    let pnode = Pnode.of_int (Wire.get_i64 image pos) in
    let kind = Wire.get_u8 image pos in
    let name = Wire.get_string image pos in
    let max_version = Wire.get_i64 image pos in
    let floor = Wire.get_i64 image pos in
    absorb_node t pnode
      ~kind:(if kind = 1 then File else Virtual)
      ~declared:(kind = 1 || kind = 2)
      ~name:(if name = "" then None else Some name)
      ~max_version ~floor
  done;
  let edges0 = t.edge_count and attrs0 = attr_entry_total t in
  let current = ref None in
  for _ = 1 to Wire.get_u32 image pos do
    let pnode = Pnode.of_int (Wire.get_i64 image pos) in
    let version = Wire.get_i64 image pos in
    let start = !pos in
    let r = Record.decode image pos in
    let run =
      match !current with
      | Some run when Pnode.equal pnode run.r_slot.node.pnode -> run
      | _ ->
          let run = open_run (slot t pnode) ~version in
          current := Some run;
          run
    in
    step t run ~version r ~size:(!pos - start)
  done;
  (* a load into a populated db (archive fault-in) adds cells disjoint
     from the resident ones — compaction splits every node's versions
     between the tiers — so the deltas are the image's own totals *)
  let edges = Wire.get_i64 image pos in
  let attr_total = Wire.get_i64 image pos in
  if edges <> t.edge_count - edges0 || attr_total <> attr_entry_total t - attrs0 then
    Wire.corrupt "provdb: index-stats footer disagrees with rebuilt indexes"

(* Every node entry takes at least 21 image bytes, so a tampered header
   cannot presize the tables past the image. *)
let deserialize image =
  let pos = ref 0 in
  check_magic image pos;
  let n_nodes = Wire.get_u32 image pos in
  let t = create_sized ~nodes:(min n_nodes (String.length image / 21)) in
  load t image;
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
   bytes; records and edges are the bulk), so the hot tier can answer
   existence/name/version queries without touching the archive. *)
let compact t ~keep =
  let keep = max 1 keep in
  let hot = create () and cold = create () in
  let slots = sorted_slots t in
  (* node tables first so the cell copies below find fully-described nodes *)
  List.iter
    (fun s ->
      copy_node hot s.node;
      copy_node cold s.node)
    slots;
  List.iter
    (fun s ->
      let n = s.node in
      let cutoff = max n.floor (max 0 (n.max_version - keep + 1)) in
      iter_cells s (fun c ->
          if c.c_version >= n.floor then
            copy_cell (if c.c_version < cutoff then cold else hot) n.pnode c);
      set_floor hot (node hot n.pnode) cutoff;
      (* the cold db records the segment's base so it is self-describing *)
      set_floor cold (node cold n.pnode) n.floor)
    slots;
  (hot, cold)

(* --- integrity ----------------------------------------------------------- *)

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

(* Rebuild-and-compare: replay [t]'s node and record tables, in image
   order, through the record-at-a-time oracle ([absorb_node],
   [add_record]) into a fresh db, and diff each index and counter against
   the live one.  The replay never goes through [step]: no runs, no
   sizes from byte spans, no presizing — and an image lists every
   reverse edge in source order, so it never sorts one either.  On any
   db, loaded, ingested, merged or compacted, it checks what the run
   path and the sort do differently.  Any drift in the incremental
   maintenance — a missed posting, a resident version that leaked, an
   edge stored with the wrong source, version or attribute or read back
   in another order — shows up as a mismatch.  The chaos harness runs
   this after crash/recover and after archive fault-in. *)
let verify_indexes t =
  (* settle the archive first: probing indexes below would otherwise
     fault it in while we iterate over the very tables it repopulates *)
  if t.floored > 0 then maybe_fault_in t;
  let r = create () in
  List.iter (fun s -> copy_node r s.node) (sorted_slots t);
  iter_quads t (fun p version record -> add_record r p ~version record);
  let describe p = string_of_int (Pnode.to_int p) in
  let problem = ref None in
  let fail msg = if !problem = None then problem := Some msg in
  if node_count t <> node_count r then
    fail (Printf.sprintf "node count %d (live) vs %d (rebuilt)" (node_count t) (node_count r));
  let same_ref (p, pv, a, v) (q, qv, b, w) =
    Pnode.equal p q && pv = qv && String.equal a b && v = w
  in
  Hashtbl.iter
    (fun p s ->
      let n = s.node in
      match Hashtbl.find r.nodes p with
      | exception Not_found -> fail ("node " ^ describe p ^ " missing after rebuild")
      | s' ->
          let m = s'.node in
          let drifted what = fail ("node " ^ describe p ^ ": " ^ what ^ " drifted") in
          if not (Option.equal String.equal n.node_name m.node_name) then
            drifted "name index source";
          if n.max_version <> m.max_version || n.floor <> m.floor then
            drifted "version-range index";
          let rec same_cells i =
            i = s.n_cells || (s.cells.(i).c_version = s'.cells.(i).c_version && same_cells (i + 1))
          in
          if s.n_cells <> s'.n_cells || not (same_cells 0) then drifted "resident-version index";
          if not (List.equal same_ref (refs_of s) (refs_of s')) then drifted "reverse-edge index")
    t.nodes;
  if Names.cardinal t.names <> Names.cardinal r.names then fail "name index: alias count drifted";
  Names.iter
    (fun name _ ->
      if not (List.equal Pnode.equal (find_by_name t name) (find_by_name r name)) then
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
  let counter name live rebuilt =
    if live <> rebuilt then fail (Printf.sprintf "%s %d (live) vs %d (rebuilt)" name live rebuilt)
  in
  counter "edge count" t.edge_count r.edge_count;
  counter "file count" t.file_count r.file_count;
  counter "quad count" t.quad_count r.quad_count;
  counter "db bytes" t.db_bytes r.db_bytes;
  counter "index bytes" t.index_bytes r.index_bytes;
  match !problem with Some msg -> Error msg | None -> Ok ()
