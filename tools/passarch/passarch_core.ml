(* passarch: whole-program layering-discipline analyzer for the PASSv2
   tree.  Four passes over the typed-AST module graph (Modgraph):

   layer map   - LAYERS.sexp declares the allowed layer DAG bottom-up.
                 Every inter-module reference (and every dune (libraries)
                 edge) is resolved to a (source layer, target layer) edge
                 and checked: upward edges are [layer-upward], downward
                 edges missing from the source layer's (deps ...) are
                 [layer-undeclared], files outside any declared dir are
                 [layer-unmapped], and an unloadable/invalid map is
                 [layer-map-error].

   exceptions  - an exception raised inside a layer must be caught, or be
                 part of the layer's declared contract (its modules'
                 .mli-declared exceptions plus the (raises ...) list),
                 before it can escape through an exported binding of a
                 module referenced from another layer: [exception-escape].
                 May-raise sets are propagated by fixpoint over the
                 binding-level call graph; [try] bodies are barriers.

   hot path    - bindings reachable from the observer->distributor record
                 path (the [Dpapi.traced] wrapper arguments, plus
                 (hot_path (extra_roots ...))) may not call into
                 Printf/Format ([hot-path-format]), capture closures into
                 retention sinks or force [lazy] ([hot-path-closure]), or
                 call [Vfs.write_file] outside the declared commit
                 barriers ([hot-path-write]).  Raise arguments and [try]
                 handlers are cold context and exempt from the formatting
                 rule.

   unused      - a top-level [val] in the interface of a library module
                 (a dir whose dune file has a [library] stanza) must be
                 referenced from some other scanned file: [unused-export].
                 Every scanned file counts as a user, tests, bench and
                 tools included.  Uses are the call-graph references that
                 [resolve_call] maps to the defining binding; the pass is
                 conservative where a reference cannot be pinned down:
                 every identifier in a file that opens or includes [M]
                 ([open M], [let open M], [M.( ... )], [include M]) is
                 tried as [M.ident] too.  A module passed to a functor
                 ([Set.Make (Pnode)]) uses nothing by name: the
                 functor's parameter signature is not scanned.  Values
                 inside nested signatures ([Pql.Engine],
                 [Telemetry.Json]) are skipped, as is a [val] whose
                 definition is not a plain [let] binding of that name.

   Shared finding/allowlist machinery lives in [Lintcommon]; entries that
   match no finding are flagged by [--stale-allowlist]. *)

module Allowlist = Lintcommon.Allowlist
module Finding = Lintcommon.Finding
module Srcutil = Lintcommon.Srcutil

let schema = "passarch/v1"

(* Violations in today's tree that are deliberate, each with its written
   justification.  [--stale-allowlist] fails if any stops matching. *)
let allowlist_entries =
  [
    Allowlist.
      {
        a_path = "lib/pyth/pyth.ml";
        a_rule = "exception-escape";
        a_symbol = "Pyth.create";
        a_why =
          "Pyth.create parses the embedded builtin-module sources; \
           Sxml.Parse_error there means the baked-in data is corrupt — a \
           build defect that should fail loudly, not an app-API error \
           worth a contract entry";
      };
    Allowlist.
      {
        a_path = "lib/pyth/pyth_builtins.ml";
        a_rule = "exception-escape";
        a_symbol = "Pyth_builtins.install_modules";
        a_why =
          "same embedded-source parse as Pyth.create: corrupt baked-in \
           sxml is a build defect, surfaced loudly on startup";
      };
  ]

let allowlist () = Allowlist.create allowlist_entries

(* --- layer-map pass ------------------------------------------------------- *)

let check_edge ~(sink : Finding.sink) ~file ~loc ~symbol
    (src : Layers.layer) (tgt : Layers.layer) =
  if not (String.equal src.Layers.l_name tgt.Layers.l_name) then
    if tgt.Layers.l_rank > src.Layers.l_rank then
      Finding.report sink ~file ~loc ~rule:"layer-upward" ~symbol
        (Printf.sprintf
           "layer %s (rank %d) references %s in layer %s (rank %d) above it"
           src.Layers.l_name src.Layers.l_rank symbol tgt.Layers.l_name
           tgt.Layers.l_rank)
    else if not (List.mem tgt.Layers.l_name src.Layers.l_deps) then
      Finding.report sink ~file ~loc ~rule:"layer-undeclared" ~symbol
        (Printf.sprintf
           "layer %s references %s in layer %s, but %s is not in its declared \
            deps (layer-skipping edge; add it to LAYERS.sexp deliberately or \
            route through an intermediate layer)"
           src.Layers.l_name symbol tgt.Layers.l_name tgt.Layers.l_name)

let layer_pass ~sink ~(layers : Layers.t) ~root graph =
  (* files outside every declared layer dir *)
  let unmapped = Hashtbl.create 8 in
  let all = Srcutil.walk ~suffix:".ml" [ root ] @ Srcutil.walk ~suffix:".mli" [ root ] in
  List.iter
    (fun path ->
      let rel =
        if String.length path > String.length root
           && String.equal (String.sub path 0 (String.length root)) root
        then String.sub path (String.length root + 1)
             (String.length path - String.length root - 1)
        else path
      in
      match Layers.layer_of_path layers rel with
      | Some _ -> ()
      | None ->
          let dir = Filename.dirname rel in
          if not (Hashtbl.mem unmapped dir) then begin
            Hashtbl.add unmapped dir ();
            Finding.report sink ~file:rel ~loc:Location.none
              ~rule:"layer-unmapped" ~symbol:dir
              (Printf.sprintf
                 "%s is not covered by any layer dir in LAYERS.sexp" dir)
          end)
    all;
  (* source edges *)
  List.iter
    (fun (f : Modgraph.file) ->
      if f.f_parse_error then
        Finding.report sink ~file:f.f_path ~loc:Location.none
          ~rule:"parse-error" ~symbol:f.f_module
          "file does not parse; layer analysis skipped it"
      else
        List.iter
          (fun (head, loc) ->
            match Modgraph.resolve_head graph ~from_dir:f.f_dir head with
            | None -> ()
            | Some (d : Modgraph.dir) ->
                check_edge ~sink ~file:f.f_path ~loc ~symbol:head
                  f.f_layer d.d_layer)
          f.f_mrefs)
    (Modgraph.files graph);
  (* dune (libraries ...) edges must obey the same map *)
  List.iter
    (fun (d : Modgraph.dir) ->
      List.iter
        (fun lib ->
          match Modgraph.dir_of_lib graph lib with
          | None -> ()
          | Some (dep : Modgraph.dir) ->
              check_edge ~sink
                ~file:(Filename.concat d.d_path "dune")
                ~loc:Location.none ~symbol:lib d.d_layer dep.d_layer)
        d.d_libdeps)
    (Modgraph.dirs graph)

(* --- exception-escape pass ------------------------------------------------ *)

(* Key for a binding node in the call graph. *)
let node_key (f : Modgraph.file) name = f.Modgraph.f_path ^ "#" ^ name

(* May-raise fixpoint: each node's escaping-exception set, seeded from
   direct raise sites not under [try], then closed over non-[try] call
   edges.  Each exception carries the file/loc where it is raised so the
   finding can point at the origin. *)
let may_raise graph =
  let tbl : (string, (string, string * Location.t) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 512
  in
  let get k =
    match Hashtbl.find_opt tbl k with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 4 in
        Hashtbl.add tbl k h;
        h
  in
  let impls =
    List.filter (fun (f : Modgraph.file) -> not f.f_intf) (Modgraph.files graph)
  in
  List.iter
    (fun (f : Modgraph.file) ->
      List.iter
        (fun (b : Modgraph.binding) ->
          let h = get (node_key f b.b_name) in
          List.iter
            (fun (r : Modgraph.raise_site) ->
              if not r.r_in_try then
                if not (Hashtbl.mem h r.r_exn) then
                  Hashtbl.add h r.r_exn (f.f_path, r.r_loc))
            b.b_raises)
        f.f_bindings)
    impls;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 100 do
    changed := false;
    incr rounds;
    List.iter
      (fun (f : Modgraph.file) ->
        List.iter
          (fun (b : Modgraph.binding) ->
            let h = get (node_key f b.b_name) in
            List.iter
              (fun (c : Modgraph.call) ->
                if not c.c_in_try then
                  match Modgraph.resolve_call graph ~from:f c with
                  | None -> ()
                  | Some (tf, tname) -> (
                      match Hashtbl.find_opt tbl (node_key tf tname) with
                      | None -> ()
                      | Some th ->
                          Hashtbl.iter
                            (fun exn origin ->
                              if not (Hashtbl.mem h exn) then begin
                                Hashtbl.add h exn origin;
                                changed := true
                              end)
                            th))
              b.b_calls)
          f.f_bindings)
      impls
  done;
  tbl

(* Programming-error exceptions: raising one means the *caller* broke the
   API contract (bad index, violated precondition), so they may cross any
   boundary, like a panic.  [Failure] is deliberately NOT here: [failwith]
   is untyped error signaling, exactly what the layer contracts exist to
   eliminate. *)
let universal_exns =
  [ "Invalid_argument"; "Assert_failure"; "Out_of_memory"; "Stack_overflow" ]

let exception_pass ~sink ~(layers : Layers.t) graph =
  let raises = may_raise graph in
  (* allowed(L): the layer's own .mli-declared exceptions + (raises ...) *)
  let allowed = Hashtbl.create 16 in
  List.iter
    (fun (f : Modgraph.file) ->
      List.iter
        (fun exn ->
          Hashtbl.replace allowed (f.f_layer.Layers.l_name ^ "/" ^ exn) ())
        f.f_mli_exns)
    (Modgraph.files graph);
  List.iter
    (fun (l : Layers.layer) ->
      List.iter
        (fun exn -> Hashtbl.replace allowed (l.l_name ^ "/" ^ exn) ())
        l.l_raises)
    layers.Layers.layers;
  let is_allowed (l : Layers.layer) exn =
    List.mem exn universal_exns || Hashtbl.mem allowed (l.l_name ^ "/" ^ exn)
  in
  (* which dirs are referenced from another layer (only those leak) *)
  let cross = Hashtbl.create 16 in
  List.iter
    (fun (f : Modgraph.file) ->
      List.iter
        (fun (head, _) ->
          match Modgraph.resolve_head graph ~from_dir:f.f_dir head with
          | Some (d : Modgraph.dir)
            when not
                   (String.equal d.d_layer.Layers.l_name
                      f.f_layer.Layers.l_name) ->
              if not (Hashtbl.mem cross d.d_path) then
                Hashtbl.add cross d.d_path f.f_layer.Layers.l_name
          | _ -> ())
        f.f_mrefs)
    (Modgraph.files graph);
  let reported = Hashtbl.create 16 in
  List.iter
    (fun (f : Modgraph.file) ->
      if (not f.f_intf) && not f.f_parse_error then
        match Hashtbl.find_opt cross f.f_dir with
        | None -> ()
        | Some ref_layer ->
            let exported b =
              match f.f_exports with
              | None -> not (String.equal b "")
              | Some l -> List.mem b l
            in
            List.iter
              (fun (b : Modgraph.binding) ->
                if exported b.b_name then
                  match Hashtbl.find_opt raises (node_key f b.b_name) with
                  | None -> ()
                  | Some h ->
                      Hashtbl.iter
                        (fun exn (ofile, oloc) ->
                          if not (is_allowed f.f_layer exn) then
                            let key = f.f_path ^ "/" ^ exn in
                            if not (Hashtbl.mem reported key) then begin
                              Hashtbl.add reported key ();
                              Finding.report sink ~file:f.f_path
                                ~loc:b.b_loc ~rule:"exception-escape"
                                ~symbol:(f.f_module ^ "." ^ b.b_name)
                                (Printf.sprintf
                                   "%s can escape %s.%s across the %s->%s \
                                    layer boundary uncaught (raised at \
                                    %s:%d); catch it, convert it to a typed \
                                    error, or declare it in the layer's \
                                    contract"
                                   exn f.f_module b.b_name
                                   f.f_layer.Layers.l_name ref_layer ofile
                                   oloc.Location.loc_start.Lexing.pos_lnum)
                            end)
                        h)
              f.f_bindings)
    (Modgraph.files graph)

(* --- hot-path purity pass ------------------------------------------------- *)

let hot_pass ~sink ~(layers : Layers.t) graph =
  let seeds = ref [] in
  (* Dpapi.traced wrapper arguments, auto-extracted *)
  List.iter
    (fun (f : Modgraph.file) ->
      List.iter
        (fun (path, v) ->
          match
            Modgraph.resolve_call graph ~from:f
              {
                Modgraph.c_path = path;
                c_value = v;
                c_loc = Location.none;
                c_in_try = false;
                c_cold = false;
              }
          with
          | Some (tf, tname) ->
              seeds :=
                (tf, tname, Printf.sprintf "%s (traced in %s)" tname f.f_path)
                :: !seeds
          | None -> ())
        f.f_seeds)
    (Modgraph.files graph);
  (* (hot_path (extra_roots Module.binding ...)) *)
  List.iter
    (fun root ->
      match String.index_opt root '.' with
      | None -> ()
      | Some i ->
          let m = String.sub root 0 i in
          let b = String.sub root (i + 1) (String.length root - i - 1) in
          List.iter
            (fun (f : Modgraph.file) ->
              match Modgraph.find_binding f b with
              | Some _ ->
                  seeds := (f, b, root ^ " (extra_roots)") :: !seeds
              | None -> ())
            (Modgraph.impl_by_module graph m))
    layers.Layers.hot.h_extra_roots;
  (* BFS over non-cold call edges *)
  let reached : (string, string) Hashtbl.t = Hashtbl.create 256 in
  let queue = Queue.create () in
  List.iter
    (fun (f, b, why) ->
      let k = node_key f b in
      if not (Hashtbl.mem reached k) then begin
        Hashtbl.add reached k why;
        Queue.add (f, b) queue
      end)
    !seeds;
  while not (Queue.is_empty queue) do
    let f, bname = Queue.pop queue in
    match Modgraph.find_binding f bname with
    | None -> ()
    | Some b ->
        let via = Hashtbl.find reached (node_key f bname) in
        List.iter
          (fun (c : Modgraph.call) ->
            if not c.c_cold then
              match Modgraph.resolve_call graph ~from:f c with
              | None -> ()
              | Some (tf, tname) ->
                  let k = node_key tf tname in
                  if not (Hashtbl.mem reached k) then begin
                    Hashtbl.add reached k
                      (Printf.sprintf "%s <- %s" (f.f_module ^ "." ^ bname) via);
                    Queue.add (tf, tname) queue
                  end)
          b.b_calls
  done;
  let barrier path =
    List.exists
      (fun b -> String.equal b path || Srcutil.under_any [ b ] path)
      layers.Layers.hot.h_commit_barriers
  in
  List.iter
    (fun (f : Modgraph.file) ->
      if not f.f_intf then
        List.iter
          (fun (b : Modgraph.binding) ->
            match Hashtbl.find_opt reached (node_key f b.b_name) with
            | None -> ()
            | Some via ->
                List.iter
                  (fun (h : Modgraph.hot_site) ->
                    if
                      not
                        (String.equal h.hs_rule "hot-path-write"
                        && barrier f.f_path)
                    then
                      Finding.report sink ~file:f.f_path ~loc:h.hs_loc
                        ~rule:h.hs_rule ~symbol:h.hs_symbol
                        (Printf.sprintf
                           "%s in %s.%s, which is on the record hot path \
                            (reached via %s)"
                           h.hs_symbol f.f_module b.b_name via))
                  b.b_hot)
          f.f_bindings)
    (Modgraph.files graph)

(* --- unused-export pass ---------------------------------------------------- *)

let unused_pass ~sink graph =
  let used = Hashtbl.create 1024 in
  List.iter
    (fun (f : Modgraph.file) ->
      if not f.f_intf then begin
        let use c =
          match Modgraph.resolve_call graph ~from:f c with
          | Some (tf, name) when not (String.equal tf.f_path f.f_path) ->
              Hashtbl.replace used (tf.f_path, name) ()
          | _ -> ()
        in
        List.iter
          (fun (b : Modgraph.binding) ->
            List.iter
              (fun (c : Modgraph.call) ->
                use c;
                List.iter
                  (fun p -> use { c with c_path = p @ c.c_path })
                  f.f_opens)
              b.b_calls)
          f.f_bindings
      end)
    (Modgraph.files graph);
  let library =
    List.filter_map
      (fun (d : Modgraph.dir) -> if d.d_library then Some d.d_path else None)
      (Modgraph.dirs graph)
  in
  List.iter
    (fun (f : Modgraph.file) ->
      if (not f.f_intf) && List.mem f.f_dir library then
        List.iter
          (fun (v, loc) ->
            if Modgraph.find_binding f v <> None
               && not (Hashtbl.mem used (f.f_path, v))
            then
              Finding.report sink ~file:(f.f_path ^ "i") ~loc
                ~rule:"unused-export" ~symbol:(f.f_module ^ "." ^ v)
                (Printf.sprintf
                   "%s.%s is exported but no other file references it; \
                    delete it, or drop it from the interface if its own \
                    module uses it"
                   f.f_module v))
          f.f_vals)
    (Modgraph.files graph)

(* --- driver ---------------------------------------------------------------- *)

(* Every pass over the tree under [root]; the number of files scanned. *)
let analyze ~sink ~root ~layers_file =
  match Layers.load (Filename.concat root layers_file) with
  | Error msg ->
      Finding.report sink ~file:layers_file ~loc:Location.none
        ~rule:"layer-map-error" ~symbol:"LAYERS.sexp"
        (Printf.sprintf "cannot load layer map: %s" msg);
      0
  | Ok layers ->
      let graph = Modgraph.scan ~layers ~root in
      layer_pass ~sink ~layers ~root graph;
      exception_pass ~sink ~layers graph;
      hot_pass ~sink ~layers graph;
      unused_pass ~sink graph;
      List.length (Modgraph.files graph)

let run ?(root = ".") ?(layers_file = "LAYERS.sexp") ?(json = false)
    ?(stale_check = false) () =
  let allow = allowlist () in
  let sink = Finding.sink allow in
  let files_scanned = analyze ~sink ~root ~layers_file in
  Finding.finish ~tool:"passarch" ~schema ~json ~stale_check ~files_scanned
    allow sink

(* For the fixture tests: the findings themselves, not just the exit code. *)
let findings ?(root = ".") ?(layers_file = "LAYERS.sexp") () =
  let sink = Finding.sink (Allowlist.create []) in
  ignore (analyze ~sink ~root ~layers_file : int);
  Finding.sorted sink
