(* Corruption seeding for the pvcheck mutation harness.

   Each injector plants exactly one class of corruption into an otherwise
   clean database, constructed so that exactly one pvcheck pass fires:
   the property tests assert both directions — a clean volume yields no
   findings, and a volume seeded with class C yields findings only from
   C's pass.  Targets are chosen deterministically (lowest pnode first)
   so a failing test names a stable object. *)

module Pnode = Pass_core.Pnode
module Pvalue = Pass_core.Pvalue
module Record = Pass_core.Record

type clazz =
  | Cycle
  | Dangling_ancestor
  | Duplicate_record
  | Broken_version_chain
  | Dangling_xref

let all =
  [ Cycle; Dangling_ancestor; Duplicate_record; Broken_version_chain;
    Dangling_xref ]

let name = function
  | Cycle -> "cycle"
  | Dangling_ancestor -> "dangling-ancestor"
  | Duplicate_record -> "duplicate-record"
  | Broken_version_chain -> "broken-version-chain"
  | Dangling_xref -> "dangling-xref"

let of_name s = List.find_opt (fun c -> String.equal (name c) s) all

(* The pvcheck pass each class must trip. *)
let flagged_by = function
  | Cycle -> "acyclicity"
  | Dangling_ancestor -> "ancestor-closure"
  | Duplicate_record -> "dedup-idempotence"
  | Broken_version_chain -> "version-chain"
  | Dangling_xref -> "xlayer-refs"

let sorted_nodes db =
  List.sort
    (fun (a : Provdb.node) (b : Provdb.node) -> Pnode.compare a.pnode b.pnode)
    (Provdb.all_nodes db)

let declared_nodes db =
  List.filter (fun (n : Provdb.node) -> n.declared) (sorted_nodes db)

let pv_to_string (p, v) = Printf.sprintf "p%d@%d" (Pnode.to_int p) v

exception No_target of string

let record_present db (p, v) (r : Record.t) =
  List.exists (Record.equal r) (Provdb.records_at db p ~version:v)

(* Close an existing cross-node ancestry edge into a 2-cycle: for the
   first edge (p,v) -> (q,w) with p <> q, add the reverse INPUT.  The
   reverse edge's target exists and the record is new, so only the
   acyclicity pass fires. *)
let inject_cycle db =
  let edge =
    List.find_map
      (fun (n : Provdb.node) ->
        List.find_map
          (fun (v, _, (x : Pvalue.xref)) ->
            if
              (not (Pnode.equal x.pnode n.pnode))
              && not
                   (record_present db (x.pnode, x.version)
                      (Record.input_of n.pnode v))
            then Some ((n.pnode, v), (x.pnode, x.version))
            else None)
          (Provdb.out_edges_all db n.pnode))
      (sorted_nodes db)
  in
  match edge with
  | None -> raise (No_target "cycle: no cross-node ancestry edge to reverse")
  | Some ((p, v), (q, w)) ->
      Provdb.add_record db q ~version:w (Record.input_of p v);
      Printf.sprintf "reversed edge %s -> %s into a cycle" (pv_to_string (p, v))
        (pv_to_string (q, w))

(* Reference a declared object at a version it never reached.  The
   phantom version has no out-edges (no cycle) and the target is
   declared (no xlayer finding), so only ancestor-closure fires. *)
let inject_dangling_ancestor db =
  match declared_nodes db with
  | [] | [ _ ] -> raise (No_target "dangling-ancestor: needs two declared objects")
  | a :: b :: _ ->
      let phantom = b.max_version + 7 in
      Provdb.add_record db a.pnode ~version:a.max_version
        (Record.input_of b.pnode phantom);
      Printf.sprintf "%s now references nonexistent %s"
        (pv_to_string (a.pnode, a.max_version))
        (pv_to_string (b.pnode, phantom))

(* Re-add an identity record verbatim: a dedup-key violation with no
   graph effect (non-ancestry, and add_record ignores a repeated NAME). *)
let inject_duplicate db =
  let target =
    List.find_map
      (fun (n : Provdb.node) ->
        List.find_map
          (fun v ->
            List.find_map
              (fun (r : Record.t) ->
                match r.value with
                | Pvalue.Xref _ -> None
                | _
                  when String.equal r.attr Record.Attr.data_md5
                       || String.equal r.attr Record.Attr.freeze ->
                    None
                | _ -> Some ((n.pnode, v), r))
              (Provdb.records_at db n.pnode ~version:v))
          (Provdb.versions db n.pnode))
      (sorted_nodes db)
  in
  match target with
  | None -> raise (No_target "duplicate-record: no identity record to repeat")
  | Some ((p, v), r) ->
      Provdb.add_record db p ~version:v r;
      Printf.sprintf "duplicated %s record at %s" r.attr (pv_to_string (p, v))

(* Plant a freeze marker whose carried version disagrees with the version
   it is attributed to — the chain bookkeeping corruption the
   version-chain pass exists to catch. *)
let inject_broken_version_chain db =
  match declared_nodes db with
  | [] -> raise (No_target "broken-version-chain: no declared object")
  | n :: _ ->
      let v = n.max_version in
      Provdb.add_record db n.pnode ~version:v
        (Record.make Record.Attr.freeze (Pvalue.Int (v + 7)));
      Printf.sprintf "freeze marker at %s claims version %d"
        (pv_to_string (n.pnode, v))
        (v + 7)

(* Reference an identity no layer ever declared.  Version 0 keeps the
   ancestor-closure pass quiet (it skips undeclared stubs anyway); only
   xlayer-refs fires. *)
let inject_dangling_xref db =
  match declared_nodes db with
  | [] -> raise (No_target "dangling-xref: no declared object")
  | n :: _ ->
      let max_raw =
        List.fold_left
          (fun acc (m : Provdb.node) -> max acc (Pnode.to_int m.pnode))
          0 (sorted_nodes db)
      in
      let ghost = Pnode.of_int (max_raw + 1) in
      Provdb.add_record db n.pnode ~version:n.max_version
        (Record.input_of ghost 0);
      Printf.sprintf "%s now references undeclared identity p%d"
        (pv_to_string (n.pnode, n.max_version))
        (max_raw + 1)

let inject db = function
  | Cycle -> inject_cycle db
  | Dangling_ancestor -> inject_dangling_ancestor db
  | Duplicate_record -> inject_duplicate db
  | Broken_version_chain -> inject_broken_version_chain db
  | Dangling_xref -> inject_dangling_xref db
