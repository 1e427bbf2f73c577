(* Graphviz export of a provenance database, for eyeballing the graphs
   the use cases produce (and the closest thing to the paper's hand-drawn
   figures).  Files are boxes, processes are ellipses, other virtual
   objects (sessions, operators, invocations, data sets) are rounded
   boxes; ancestry edges are labeled with their attribute when it is not
   plain INPUT. *)

module Pnode = Pass_core.Pnode
module Pvalue = Pass_core.Pvalue

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c -> match c with '"' | '\\' -> Buffer.add_char buf '_' | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let node_label db (n : Provdb.node) =
  let name = Option.value n.node_name ~default:(Printf.sprintf "p%d" (Pnode.to_int n.pnode)) in
  let ty =
    List.find_map
      (fun (r : Pass_core.Record.t) ->
        if String.equal r.attr "TYPE" then
          match r.value with Pvalue.Str s -> Some s | _ -> None
        else None)
      (Provdb.records_all db n.pnode)
  in
  (name, ty)

let node_shape kind ty =
  match (kind, ty) with
  | Provdb.File, _ -> "box"
  | Provdb.Virtual, Some "PROCESS" -> "ellipse"
  | Provdb.Virtual, _ -> "box, style=rounded"

(* Render the whole database, or only the ancestry cone of [roots]. *)
let to_dot ?roots db =
  let keep =
    match roots with
    | None -> fun _ -> true
    | Some pnodes ->
        let included = Hashtbl.create 64 in
        List.iter
          (fun p ->
            Hashtbl.replace included p ();
            let n = Provdb.find_node db p in
            let version = match n with Some n -> n.Provdb.max_version | None -> 0 in
            List.iter
              (fun (a, _) -> Hashtbl.replace included a ())
              (Provdb.ancestors db p ~version))
          pnodes;
        fun p -> Hashtbl.mem included p
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph provenance {\n  rankdir=BT;\n  node [fontsize=10];\n";
  List.iter
    (fun (n : Provdb.node) ->
      if keep n.pnode then begin
        let name, ty = node_label db n in
        let versions = n.max_version + 1 in
        let label =
          if versions > 1 then Printf.sprintf "%s (v0..%d)" name n.max_version else name
        in
        Buffer.add_string buf
          (Printf.sprintf "  n%d [label=\"%s\", shape=%s];\n" (Pnode.to_int n.pnode)
             (escape label) (node_shape n.kind ty))
      end)
    (Provdb.all_nodes db);
  (* edges: collapse versions (one edge per distinct (src, attr, dst)) *)
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (n : Provdb.node) ->
      if keep n.pnode then
        List.iter
          (fun (_v, attr, (x : Pvalue.xref)) ->
            if keep x.pnode && not (Pnode.equal x.pnode n.pnode) then begin
              let key = (n.pnode, attr, x.pnode) in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.replace seen key ();
                let label = if String.equal attr "INPUT" then "" else
                    Printf.sprintf " [label=\"%s\", fontsize=8]" (escape attr)
                in
                Buffer.add_string buf
                  (Printf.sprintf "  n%d -> n%d%s;\n" (Pnode.to_int n.pnode)
                     (Pnode.to_int x.pnode) label)
              end
            end)
          (Provdb.out_edges_all db n.pnode))
    (Provdb.all_nodes db);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
