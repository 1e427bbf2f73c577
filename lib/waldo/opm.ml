(* Open-Provenance-Model-style XML export.

   The paper's Section 2 leans on the Provenance Challenges [24, 25],
   whose community converged on OPM as the interchange format: artifacts
   (our files and file versions), processes (our process objects), agents
   (not modelled here), and the used / wasGeneratedBy / wasTriggeredBy /
   wasDerivedFrom dependency edges.  This module maps a Provdb graph onto
   that vocabulary, reusing the Sxml printer, so a PASSv2 database can be
   handed to challenge-style tooling.

   Mapping:
   - a File node at version v        -> <artifact id="a<pnode>_<v>">
   - a Virtual node typed PROCESS    -> <process id="p<pnode>">
   - any other virtual node          -> <artifact> (sessions, data sets,
     operators and invocations are artifacts in OPM terms)
   - edge process -> artifact        -> <used>
   - edge artifact -> process        -> <wasGeneratedBy>
   - edge process -> process         -> <wasTriggeredBy>
   - edge artifact -> artifact       -> <wasDerivedFrom> *)

module Pnode = Pass_core.Pnode
module Pvalue = Pass_core.Pvalue

let is_process db pnode =
  List.exists
    (fun (r : Pass_core.Record.t) -> r.attr = "TYPE" && r.value = Pvalue.Str "PROCESS")
    (Provdb.records_all db pnode)

let artifact_id p v = Printf.sprintf "a%d_%d" (Pnode.to_int p) v
let process_id p = Printf.sprintf "p%d" (Pnode.to_int p)

let node_id db p v = if is_process db p then process_id p else artifact_id p v

let label db p =
  match Provdb.name_of db p with
  | Some n -> n
  | None -> Printf.sprintf "pnode-%d" (Pnode.to_int p)

let ref_el tag target = { Sxml.tag; attrs = [ ("ref", target) ]; children = [] }

let export db =
  let artifacts = ref [] in
  let processes = ref [] in
  let dependencies = ref [] in
  List.iter
    (fun (n : Provdb.node) ->
      let p = n.pnode in
      if is_process db p then
        processes :=
          { Sxml.tag = "process";
            attrs = [ ("id", process_id p); ("label", label db p) ];
            children = [] }
          :: !processes
      else
        List.iter
          (fun v ->
            artifacts :=
              { Sxml.tag = "artifact";
                attrs =
                  [ ("id", artifact_id p v); ("label", label db p);
                    ("version", string_of_int v) ];
                children = [] }
              :: !artifacts)
          (Provdb.versions db p);
      (* dependency edges *)
      List.iter
        (fun (v, _attr, (x : Pvalue.xref)) ->
          let src_proc = is_process db p and dst_proc = is_process db x.pnode in
          let cause = node_id db x.pnode x.version in
          let effect = node_id db p v in
          let dep =
            match (src_proc, dst_proc) with
            | true, false ->
                { Sxml.tag = "used"; attrs = [];
                  children =
                    [ Sxml.Element (ref_el "effect" effect);
                      Sxml.Element (ref_el "cause" cause) ] }
            | false, true ->
                { Sxml.tag = "wasGeneratedBy"; attrs = [];
                  children =
                    [ Sxml.Element (ref_el "effect" effect);
                      Sxml.Element (ref_el "cause" cause) ] }
            | true, true ->
                { Sxml.tag = "wasTriggeredBy"; attrs = [];
                  children =
                    [ Sxml.Element (ref_el "effect" effect);
                      Sxml.Element (ref_el "cause" cause) ] }
            | false, false ->
                { Sxml.tag = "wasDerivedFrom"; attrs = [];
                  children =
                    [ Sxml.Element (ref_el "effect" effect);
                      Sxml.Element (ref_el "cause" cause) ] }
          in
          dependencies := dep :: !dependencies)
        (Provdb.out_edges_all db p))
    (Provdb.all_nodes db);
  let wrap tag children = { Sxml.tag; attrs = []; children = List.map (fun e -> Sxml.Element e) children } in
  {
    Sxml.tag = "opmGraph";
    attrs = [ ("xmlns", "http://openprovenance.org/model/v1.01.a") ];
    children =
      [
        Sxml.Element (wrap "artifacts" (List.rev !artifacts));
        Sxml.Element (wrap "processes" (List.rev !processes));
        Sxml.Element (wrap "dependencies" (List.rev !dependencies));
      ];
  }

let to_string db = Sxml.to_string (export db)
