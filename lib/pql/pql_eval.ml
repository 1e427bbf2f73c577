(* PQL evaluator over the Waldo provenance database.

   The data model is Lore's OEM flavour: a graph of objects, some holding
   values and some holding named linkages.  Here objects are (pnode,
   version) pairs in the Provdb and linkages are provenance records; a
   record with a cross-reference value is a graph edge, a record with a
   plain value is a leaf.

   Evaluation is by environments: the FROM clause is a series of bindings,
   each extending every current environment with one binding of its
   variable to an endpoint of its path.  WHERE filters environments; the
   SELECT clause projects (or aggregates) them.

   Path steps hop from a Provdb slot, the node-table entry of a pnode: a
   forward or [_] step reads the cell's quads, an inverse step the slot's
   reverse edges, which hold their source slots.  A closure lists its
   endpoints in breadth-first discovery order, starts first; a
   single-edge closure is a marked walk over slots, with no hashtable per
   hop (DESIGN §15, "The read path").

   Cold-tier transparency: every graph access below goes through the
   Provdb accessors (iter_cell / iter_refs / iter_records_all /
   records_all), which fault archived history in on demand when a query
   dips below a node's compaction floor (DESIGN §13).  The evaluator
   therefore needs no archive awareness of its own — an ancestry walk
   that crosses the archive boundary sees the same graph as one over a
   never-compacted database. *)

open Pql_ast
module Pnode = Pass_core.Pnode
module Pvalue = Pass_core.Pvalue
module Record = Pass_core.Record

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type item = Node of Pnode.t * int | Value of Pvalue.t

let item_equal a b =
  match (a, b) with
  | Node (p, v), Node (p', v') -> Pnode.equal p p' && v = v'
  | Value x, Value y -> Pvalue.equal x y
  | (Node _ | Value _), _ -> false

(* A hash consistent with [item_equal] (equal items hash alike), written
   out because the generic hash is banned by passlint. *)
let mix h x =
  let h = (h lxor x) * 0x100000001b3 in
  (h lxor (h lsr 29)) land max_int

let hash_string h s = String.fold_left (fun h c -> mix h (Char.code c)) h s

let item_hash = function
  | Node (p, v) -> mix (mix 1 (Pnode.to_int p)) v
  | Value (Pvalue.Str s) -> hash_string 2 s
  | Value (Pvalue.Int i) -> mix 3 i
  | Value (Pvalue.Bool b) -> mix 4 (Bool.to_int b)
  | Value (Pvalue.Bytes s) -> hash_string 5 s
  | Value (Pvalue.Strs l) -> List.fold_left hash_string 6 l
  | Value (Pvalue.Xref x) -> mix (mix 7 (Pnode.to_int x.pnode)) x.version

module Items = Hashtbl.Make (struct
  type t = item

  let equal = item_equal
  let hash = item_hash
end)

module Rows = Hashtbl.Make (struct
  type t = item list

  let equal = List.equal item_equal
  let hash = List.fold_left (fun h it -> mix h (item_hash it)) 0
end)

(* Add [it] to [seen]; true when it was not there yet.  One probe:
   [replace] of a present key leaves the table's size alone. *)
let add_new seen it =
  let n = Items.length seen in
  Items.replace seen it ();
  Items.length seen > n

let dedup items =
  let seen = Items.create 64 in
  List.filter (add_new seen) items

type env = (string * item) list

let lookup env v =
  let rec go = function
    | [] -> fail "unbound variable %s" v
    | (k, it) :: rest -> if String.equal k v then it else go rest
  in
  go env

(* Whether attribute [a] equals [upper], an uppercased query attribute,
   case-insensitively, without an uppercased copy of [a]: Provdb stores
   attributes uppercase in nearly every case, so the exact comparison
   usually decides. *)
let same_attr upper a =
  String.length a = String.length upper
  && (String.equal a upper
     ||
     let rec go i =
       i = String.length a || (Char.equal (Char.uppercase_ascii a.[i]) upper.[i] && go (i + 1))
     in
     go 0)

(* --- pseudo-attributes every node answers --------------------------------- *)

let node_pseudo db p v = function
  | "name" -> (
      match Provdb.name_of db p with Some n -> [ Value (Pvalue.Str n) ] | None -> [])
  | "version" -> [ Value (Pvalue.Int v) ]
  | "pnode" -> [ Value (Pvalue.Int (Pnode.to_int p)) ]
  | _ -> []

let attr_values db p v attr =
  (* attribute lookup searches every version of the object: identity
     records (NAME, TYPE, ARGV …) are written once, not per version *)
  let upper = String.uppercase_ascii attr and found = ref [] in
  Provdb.iter_records_all db p (fun r ->
      if same_attr upper r.attr then found := Value r.value :: !found);
  match !found with [] -> node_pseudo db p v attr | values -> List.rev values

(* --- path step semantics --------------------------------------------------- *)

(* Where one edge's endpoints go: a reverse edge's source slot to [slot],
   a cross-reference target to [node], any other value to [value]. *)
type sink = {
  slot : Provdb.slot -> int -> unit;
  node : Pnode.t -> int -> unit;
  value : Pvalue.t -> unit;
}

(* [hop db e k s v] hands each endpoint of one [e] edge from cell (s, v)
   to [k], in the order of the underlying accessor, without building a
   list.  The step's attribute is uppercased, and its per-record test
   built, once, here. *)
let hop db e (k : sink) =
  match e with
  | Forward a ->
      let upper = String.uppercase_ascii a in
      let record (r : Record.t) =
        if same_attr upper r.attr then
          match r.value with Pvalue.Xref x -> k.node x.pnode x.version | other -> k.value other
      in
      fun s v -> Provdb.iter_cell db s ~version:v record
  | Inverse a ->
      (* inverse traversal is pnode-granular: "who refers to any version of
         this object" is what descendant queries mean in practice *)
      let upper = String.uppercase_ascii a in
      let edge src srcv a = if same_attr upper a then k.slot src srcv in
      fun s _v -> Provdb.iter_refs db s edge
  | Any_edge ->
      let record (r : Record.t) =
        match r.value with Pvalue.Xref x -> k.node x.pnode x.version | _ -> ()
      in
      fun s v -> Provdb.iter_cell db s ~version:v record

(* One [e] step from each item, handing [f] the endpoints as items.  A
   value, or a node with no slot, has no edges. *)
let step db e f =
  let hop =
    hop db e
      {
        slot = (fun s v -> f (Node (Provdb.slot_pnode s, v)));
        node = (fun p v -> f (Node (p, v)));
        value = (fun x -> f (Value x));
      }
  in
  function
  | Value _ -> ()
  | Node (p, v) -> ( match Provdb.find_slot db p with s -> hop s v | exception Not_found -> ())

(* The closure of one edge, [e*] from [starts]: a marked walk over Provdb
   slots ([Provdb.walk_cells]).  A slot holds the version the walk first
   reached it at; [others] holds only what the marks cannot — a slot's
   further versions, values, and nodes with no slot.  Neither of the
   last two has edges, so they are listed but never expanded.  An
   inverse hop ignores the version it hops from, so an inverse closure
   lists a further version of a reached slot but does not queue it:
   expanding it would reread the slot's reverse edges and reach nothing
   new. *)
let edge_closure db e starts =
  let others = Items.create 8 and found = ref [] in
  let keep it = if add_new others it then found := it :: !found in
  let again =
    match e with
    | Inverse _ ->
        fun s v ->
          keep (Node (Provdb.slot_pnode s, v));
          false
    | Forward _ | Any_edge -> fun s v -> add_new others (Node (Provdb.slot_pnode s, v))
  in
  Provdb.walk_cells db ~again
    ~seed:(fun reach ->
      List.iter
        (fun it ->
          match it with
          | Node (p, v) -> (
              match Provdb.find_slot db p with
              | s -> if reach s v then found := it :: !found
              | exception Not_found -> keep it)
          | Value _ -> keep it)
        starts)
    ~expand:(fun reach ->
      let slot s v = if reach s v then found := Node (Provdb.slot_pnode s, v) :: !found in
      hop db e
        {
          slot;
          node =
            (fun p v ->
              match Provdb.find_slot db p with
              | s -> slot s v
              | exception Not_found -> keep (Node (p, v)));
          value = (fun x -> keep (Value x));
        });
  List.rev !found

let rec eval_path db path items =
  match path with
  | Edge e ->
      let seen = Items.create 64 and out = ref [] in
      List.iter (step db e (fun x -> if add_new seen x then out := x :: !out)) items;
      List.rev !out
  | Seq (a, b) -> eval_path db b (eval_path db a items)
  | Alt (a, b) -> dedup (eval_path db a items @ eval_path db b items)
  | Opt p -> dedup (items @ eval_path db p items)
  | Plus p -> closure db p (eval_path db p items)
  | Star p -> closure db p items

(* Reflexive-transitive closure by breadth-first saturation.  The result
   lists every item reached in discovery order: the starts first, then
   each level in the order its items were found, so a row's position
   follows its BFS depth.  A single-edge body is a marked slot walk
   ([edge_closure]); any other body goes through [eval_path] a level at a
   time, deduplicated by an [Items] table, and never nests a marked walk
   inside another: only [edge_closure] takes the marks. *)
and closure db p starts =
  match p with
  | Edge e -> edge_closure db e starts
  | _ ->
      let seen = Items.create 64 and found = ref [] in
      let fresh level =
        List.filter
          (fun it ->
            add_new seen it
            &&
            (found := it :: !found;
             true))
          level
      in
      let rec loop = function [] -> () | level -> loop (fresh (eval_path db p level)) in
      loop (fresh starts);
      List.rev !found

(* --- roots ----------------------------------------------------------------- *)

let is_process db p =
  List.exists
    (fun (r : Record.t) -> String.equal r.attr "TYPE" && r.value = Pvalue.Str "PROCESS")
    (Provdb.records_all db p)

let in_class db root (n : Provdb.node) =
  match root with
  | Root_files -> n.kind = Provdb.File
  | Root_processes -> is_process db n.pnode
  | Root_objects | Root_var _ -> true

let root_items db env = function
  | Root_var v -> [ lookup env v ]
  | root ->
      List.filter_map
        (fun (n : Provdb.node) ->
          if in_class db root n then Some (Node (n.pnode, n.max_version)) else None)
        (Provdb.all_nodes db)

(* --- expressions ------------------------------------------------------------ *)

(* an expression evaluates to a list of candidate values/items
   (attribute access is set-valued in OEM) *)
let eval_expr db env = function
  | Var v -> [ lookup env v ]
  | Attr (v, attr) -> (
      match lookup env v with Node (p, ver) -> attr_values db p ver attr | Value _ -> [])
  | Lit (L_str s) -> [ Value (Pvalue.Str s) ]
  | Lit (L_int i) -> [ Value (Pvalue.Int i) ]
  | Lit (L_bool b) -> [ Value (Pvalue.Bool b) ]

(* glob matching for ~ : '*' any sequence, '?' one char.  Greedy, with
   one backtrack point: on a mismatch only the last '*' seen takes one
   more character ([star] is its pattern index, [mark] where its match
   ends in [s]).  An earlier star never needs to: whatever it would
   absorb the last one can absorb too.  O(|pattern| * |s|). *)
let rec glob_from pattern s i j star mark =
  let np = String.length pattern in
  if j = String.length s then
    (* [s] consumed: only stars may remain *)
    let rec stars i = i = np || (pattern.[i] = '*' && stars (i + 1)) in
    stars i
  else if i < np && pattern.[i] = '*' then glob_from pattern s (i + 1) j i j
  else if i < np && (pattern.[i] = '?' || pattern.[i] = s.[j]) then
    glob_from pattern s (i + 1) (j + 1) star mark
  else star >= 0 && glob_from pattern s (star + 1) (mark + 1) star (mark + 1)

let glob_match pattern s = glob_from pattern s 0 0 (-1) 0

let compare_values op (a : item) (b : item) =
  let num = function
    | Value (Pvalue.Int i) -> Some i
    | Node _ | Value _ -> None
  in
  let str = function
    | Value (Pvalue.Str s) -> Some s
    | Value (Pvalue.Bytes s) -> Some s
    | Node _ | Value _ -> None
  in
  match op with
  | Eq -> item_equal a b
  | Neq -> not (item_equal a b)
  | Like -> (
      match (str a, str b) with Some s, Some p -> glob_match p s | _ -> false)
  | Lt | Le | Gt | Ge -> (
      let cmp c = match op with Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0 | Ge -> c >= 0 | _ -> false in
      match (num a, num b) with
      | Some x, Some y -> cmp (Int.compare x y)
      | _ -> (
          match (str a, str b) with
          | Some x, Some y -> cmp (String.compare x y)
          | _ -> false))

(* --- projection ------------------------------------------------------------ *)

(* Turn the surviving environments into result rows: aggregation or the
   per-environment cartesian product of set-valued outputs, set-semantics
   row dedup, then ordering.  Shared verbatim by the cost-based executor
   (Pql_exec) so planner and oracle can only disagree about which
   environments they build, never about how rows are produced. *)
let project db (q : query) envs =
  let has_agg = List.exists (function O_agg _ -> true | O_expr _ -> false) q.select in
  if has_agg then
    [
      List.map
        (fun out ->
          match out with
          | O_expr e -> (
              (* non-aggregated output alongside an aggregate: take any *)
              match List.concat_map (fun env -> eval_expr db env e) envs with
              | it :: _ -> it
              | [] -> Value (Pvalue.Str ""))
          | O_agg (agg, e) ->
              let values =
                dedup (List.concat_map (fun env -> eval_expr db env e) envs)
              in
              let ints =
                List.filter_map
                  (function Value (Pvalue.Int i) -> Some i | _ -> None)
                  values
              in
              let v =
                match agg with
                | Count -> Pvalue.Int (List.length values)
                | Sum -> Pvalue.Int (List.fold_left ( + ) 0 ints)
                | Min -> (
                    match ints with
                    | [] -> Pvalue.Int 0
                    | _ -> Pvalue.Int (List.fold_left min max_int ints))
                | Max -> (
                    match ints with
                    | [] -> Pvalue.Int 0
                    | _ -> Pvalue.Int (List.fold_left max min_int ints))
                | Avg -> (
                    match ints with
                    | [] -> Pvalue.Int 0
                    | _ ->
                        Pvalue.Int (List.fold_left ( + ) 0 ints / List.length ints))
              in
              Value v)
        q.select;
    ]
  else
    (* set semantics: a row joins only the first time it is produced; a
       one-column row is deduplicated by its item, a wider one by the row.
       The item table is sized to the environments, at most 256 buckets
       (a larger bucket array would be allocated in the major heap).
       Order keys are kept, in step with the rows, only under ORDER BY. *)
    let seen_items = Items.create (min 256 (List.length envs)) and seen = Rows.create 64 in
    let rows = ref [] and keys = ref [] in
    let emit order_key row =
      rows := row :: !rows;
      if Option.is_some q.order then keys := order_key :: !keys
    in
    List.iter
      (fun env ->
        let order_key =
          match q.order with
          | Some (e, _) -> (match eval_expr db env e with k :: _ -> Some k | [] -> None)
          | None -> None
        in
        (* a row per combination of set-valued outputs would explode;
           like Lorel we take the cartesian product per environment *)
        match q.select with
        | [ (O_expr e | O_agg (_, e)) ] ->
            List.iter
              (fun v -> if add_new seen_items v then emit order_key [ v ])
              (eval_expr db env e)
        | select ->
            let rec cartesian = function
              | [] -> [ [] ]
              | col :: rest ->
                  let tails = cartesian rest in
                  List.concat_map (fun v -> List.map (fun tl -> v :: tl) tails) col
            in
            List.iter
              (fun row ->
                let n = Rows.length seen in
                Rows.replace seen row ();
                if Rows.length seen > n then emit order_key row)
              (cartesian (List.map (fun (O_expr e | O_agg (_, e)) -> eval_expr db env e) select)))
      envs;
    let rows = List.rev !rows in
    (* ordering: integers and strings by value, nodes by rendered name,
       mixed kinds by a fixed rank; stable for ties *)
    match q.order with
    | None -> rows
    | Some (_, descending) ->
        let rank = function
          | None -> 0
          | Some (Value (Pvalue.Bool _)) -> 1
          | Some (Value (Pvalue.Int _)) -> 2
          | Some (Value (Pvalue.Str _)) | Some (Value (Pvalue.Bytes _)) -> 3
          | Some (Value _) -> 4
          | Some (Node _) -> 5
        in
        let key_repr = function
          | Some (Value (Pvalue.Bool b)) -> `I (Bool.to_int b)
          | Some (Value (Pvalue.Int i)) -> `I i
          | Some (Value (Pvalue.Str s)) | Some (Value (Pvalue.Bytes s)) -> `S s
          | Some (Node (p, _)) ->
              `S (Option.value (Provdb.name_of db p)
                    ~default:(string_of_int (Pnode.to_int p)))
          | _ -> `I 0
        in
        let cmp_repr r r' =
          (* equal ranks imply same constructor; the cross-kind arms
             only keep the comparator total *)
          match (r, r') with
          | `I a, `I b -> Int.compare a b
          | `S a, `S b -> String.compare a b
          | `I _, `S _ -> -1
          | `S _, `I _ -> 1
        in
        let cmp (ka, _) (kb, _) =
          let c = Int.compare (rank ka) (rank kb) in
          let c = if c <> 0 then c else cmp_repr (key_repr ka) (key_repr kb) in
          if descending then -c else c
        in
        List.map snd (List.stable_sort cmp (List.combine (List.rev !keys) rows))

(* --- conditions (mutually recursive with query evaluation for subqueries) -- *)

let rec eval_cond db env = function
  | And (a, b) -> eval_cond db env a && eval_cond db env b
  | Or (a, b) -> eval_cond db env a || eval_cond db env b
  | Not c -> not (eval_cond db env c)
  | Cmp (l, op, r) ->
      (* existential semantics over set-valued expressions *)
      let ls = eval_expr db env l and rs = eval_expr db env r in
      List.exists (fun a -> List.exists (fun b -> compare_values op a b) rs) ls
  | Exists q -> eval_rows db env q <> []
  | In_query (e, q) ->
      let vals = eval_expr db env e in
      let rows = eval_rows db env q in
      List.exists
        (fun row -> match row with [ it ] -> List.exists (item_equal it) vals | _ -> false)
        rows

and eval_envs db outer (q : query) =
  let envs =
    List.fold_left
      (fun envs (src : source) ->
        List.concat_map
          (fun env ->
            let start = root_items db env src.root in
            let endpoints =
              match src.path with None -> start | Some p -> eval_path db p start
            in
            List.map (fun it -> (src.binder, it) :: env) endpoints)
          envs)
      [ outer ] q.froms
  in
  match q.where with
  | None -> envs
  | Some cond -> List.filter (fun env -> eval_cond db env cond) envs

and eval_rows db outer (q : query) = project db q (eval_envs db outer q)

let truncate n l =
  let rec go k = function [] -> [] | x :: rest -> if k = 0 then [] else x :: go (k - 1) rest in
  go n l

let apply_limit (q : query) rows =
  match q.limit with Some n -> truncate (max 0 n) rows | None -> rows

(* The whole naive pipeline: the reference oracle the cost-based planner
   is checked against.  O(graph) per binding — every class root
   enumerates the full node table and dependent paths are re-walked per
   environment — which is exactly why execution goes through Pql_exec;
   this stays as the semantics definition. *)
let reference_rows db q = apply_limit q (eval_rows db [] q)
