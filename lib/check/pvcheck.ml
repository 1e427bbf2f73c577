(* pvcheck: an offline "fsck for provenance".

   The analyzer exists to guarantee graph invariants — cycle avoidance,
   duplicate elimination, version monotonicity (paper §5.4) — but nothing
   downstream ever *verifies* that the provenance that reached Waldo
   actually satisfies them.  pvcheck loads a provenance database (plus any
   unprocessed WAP logs) and runs a pipeline of static passes over the
   stored graph, one per invariant:

   - acyclicity        the version/ancestry graph is a DAG, cross-checked
                       against the PASSv1 Cycle_detect baseline as oracle;
   - version-chain     freeze markers agree with the version they are
                       attributed to, and no version > 0 appears without
                       the freeze that created it;
   - ancestor-closure  every referenced (pnode, version) of a declared
                       object exists;
   - dedup-idempotence no two stored records are identical under the
                       analyzer's dedup key (pnode, version, record);
   - xlayer-refs       every referenced identity was declared by some
                       layer (a Map or Mkobj frame) — an undeclared stub
                       is a dangling cross-layer reference;
   - orphan-agreement  the transactions Waldo would discard as orphans
                       match Recovery's independent open-transaction scan.

   Passes only read the database; findings are data (structured, with a
   severity and a repro hint), so the checker can run after every chaos
   or recovery test and in CI. *)

module Pnode = Pass_core.Pnode
module Pvalue = Pass_core.Pvalue
module Record = Pass_core.Record
module Cycle_detect = Pass_core.Cycle_detect

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type finding = {
  f_pass : string;
  f_severity : severity;
  f_subject : string;
  f_detail : string;
  f_repro : string;
}

type report = {
  r_volume : string;
  r_nodes : int;
  r_quads : int;
  r_edges : int;
  r_passes : string list;
  r_findings : finding list;
}

let clean r = match r.r_findings with [] -> true | _ -> false

let pv_to_string (p, v) = Printf.sprintf "p%d@%d" (Pnode.to_int p) v

let finding ~pass ?(severity = Error) ~subject ~detail ~repro () =
  { f_pass = pass; f_severity = severity; f_subject = subject;
    f_detail = detail; f_repro = repro }

(* Nodes in deterministic order, so findings are stable across runs. *)
let sorted_nodes db =
  List.sort
    (fun (a : Provdb.node) (b : Provdb.node) -> Pnode.compare a.pnode b.pnode)
    (Provdb.all_nodes db)

let edges_of db =
  List.concat_map
    (fun (n : Provdb.node) ->
      List.map
        (fun (v, attr, (x : Pvalue.xref)) ->
          ((n.pnode, v), (x.pnode, x.version), attr))
        (Provdb.out_edges_all db n.pnode))
    (sorted_nodes db)

(* --- pass: acyclicity ----------------------------------------------------- *)

(* Own DFS with explicit path tracking so a finding can carry the actual
   cycle, cross-checked against the PASSv1 global detector: Cycle_detect
   merges the nodes of any cycle it sees, so "the input graph had a
   cycle" is [merges > 0] after inserting every edge. *)
let pass_acyclicity db =
  let name = "acyclicity" in
  let eq_pv a b = Provdb.compare_pv a b = 0 in
  let color : (Pnode.t * int, bool) Hashtbl.t = Hashtbl.create 1024 in
  let cycles = ref [] in
  let rec dfs path key =
    match Hashtbl.find_opt color key with
    | Some true -> () (* finished *)
    | Some false ->
        (* back edge: the cycle is the path suffix back to [key] *)
        let rec take acc = function
          | [] -> acc
          | k :: rest -> if eq_pv k key then k :: acc else take (k :: acc) rest
        in
        cycles := take [ key ] path :: !cycles
    | None ->
        Hashtbl.replace color key false;
        let p, v = key in
        List.iter
          (fun (_, (x : Pvalue.xref)) -> dfs (key :: path) (x.pnode, x.version))
          (Provdb.out_edges db p ~version:v);
        Hashtbl.replace color key true
  in
  let edges = edges_of db in
  List.iter (fun (src, _, _) -> dfs [] src) edges;
  let cycle_findings =
    List.rev_map
      (fun cycle ->
        let path = String.concat " -> " (List.map pv_to_string cycle) in
        finding ~pass:name
          ~subject:(pv_to_string (List.hd cycle))
          ~detail:("ancestry cycle: " ^ path)
          ~repro:("follow out_edges from " ^ pv_to_string (List.hd cycle))
          ())
      !cycles
  in
  (* oracle cross-check *)
  let oracle = Cycle_detect.create () in
  List.iter (fun (src, dst, _) -> Cycle_detect.add_edge oracle src dst) edges;
  let oracle_saw_cycle = Cycle_detect.merges oracle > 0 in
  let own_saw_cycle = match cycle_findings with [] -> false | _ -> true in
  let divergence =
    if Bool.equal oracle_saw_cycle own_saw_cycle then []
    else
      [ finding ~pass:name ~subject:"(checker)"
          ~detail:
            (Printf.sprintf
               "verdict divergence: DFS says %s, Cycle_detect oracle says %s"
               (if own_saw_cycle then "cyclic" else "acyclic")
               (if oracle_saw_cycle then "cyclic" else "acyclic"))
          ~repro:"re-run with both detectors over the same edge list" () ]
  in
  cycle_findings @ divergence

(* --- pass: version-chain monotonicity ------------------------------------- *)

let pass_version_chain db =
  let name = "version-chain" in
  List.concat_map
    (fun (n : Provdb.node) ->
      List.concat_map
        (fun v ->
          let records = Provdb.records_at db n.pnode ~version:v in
          let markers =
            List.filter
              (fun (r : Record.t) -> String.equal r.attr Record.Attr.freeze)
              records
          in
          let bad =
            List.filter_map
              (fun (r : Record.t) ->
                match r.value with
                | Pvalue.Int fv when fv = v -> None
                | Pvalue.Int fv ->
                    Some
                      (finding ~pass:name ~subject:(pv_to_string (n.pnode, v))
                         ~detail:
                           (Printf.sprintf
                              "freeze marker carries version %d but is attributed to version %d"
                              fv v)
                         ~repro:
                           (Printf.sprintf "records_at p%d version %d"
                              (Pnode.to_int n.pnode) v)
                         ())
                | _ ->
                    Some
                      (finding ~pass:name ~subject:(pv_to_string (n.pnode, v))
                         ~detail:"freeze marker carries a non-integer version"
                         ~repro:
                           (Printf.sprintf "records_at p%d version %d"
                              (Pnode.to_int n.pnode) v)
                         ()))
              markers
          in
          let missing =
            match (records, markers) with
            | _ :: _, [] when v > 0 ->
                [ finding ~pass:name ~subject:(pv_to_string (n.pnode, v))
                    ~detail:
                      (Printf.sprintf
                         "version %d has records but no freeze marker created it" v)
                    ~repro:
                      (Printf.sprintf "records_at p%d version %d"
                         (Pnode.to_int n.pnode) v)
                    () ]
            | _ -> []
          in
          bad @ missing)
        (Provdb.versions db n.pnode))
    (sorted_nodes db)

(* --- pass: ancestor closure ----------------------------------------------- *)

let pass_closure db =
  let name = "ancestor-closure" in
  List.concat_map
    (fun (n : Provdb.node) ->
      List.filter_map
        (fun (v, attr, (x : Pvalue.xref)) ->
          match Provdb.find_node db x.pnode with
          | None ->
              (* unreachable: inserting an xref stubs its target *)
              Some
                (finding ~pass:name ~subject:(pv_to_string (n.pnode, v))
                   ~detail:
                     (Printf.sprintf "%s edge targets unknown object %s" attr
                        (pv_to_string (x.pnode, x.version)))
                   ~repro:
                     (Printf.sprintf "out_edges p%d version %d"
                        (Pnode.to_int n.pnode) v)
                   ())
          | Some tgt ->
              (* undeclared stubs are the xlayer pass's domain: their
                 max_version is not meaningful *)
              if tgt.declared && x.version > tgt.max_version then
                Some
                  (finding ~pass:name ~subject:(pv_to_string (n.pnode, v))
                     ~detail:
                       (Printf.sprintf
                          "%s edge references %s but the target's latest version is %d"
                          attr
                          (pv_to_string (x.pnode, x.version))
                          tgt.max_version)
                     ~repro:
                       (Printf.sprintf "out_edges p%d version %d"
                          (Pnode.to_int n.pnode) v)
                     ())
              else None)
        (Provdb.out_edges_all db n.pnode))
    (sorted_nodes db)

(* --- pass: duplicate-elimination idempotence ------------------------------- *)

(* The analyzer dedups on (pnode, version, record); if it worked, no two
   stored records are identical under that key.  WAP data-identity records
   ([data_md5]) bypass the analyzer — one is logged per write, so two
   identical writes legitimately repeat one — and are excluded. *)
let pass_dedup db =
  let name = "dedup-idempotence" in
  let counts : (string, int ref) Hashtbl.t = Hashtbl.create 4096 in
  let order = ref [] in
  List.iter
    (fun (n : Provdb.node) ->
      List.iter
        (fun v ->
          List.iter
            (fun (r : Record.t) ->
              if not (String.equal r.attr Record.Attr.data_md5) then begin
                let buf = Buffer.create 32 in
                Record.encode buf r;
                let key =
                  Printf.sprintf "%d.%d:%s" (Pnode.to_int n.pnode) v (Buffer.contents buf)
                in
                match Hashtbl.find_opt counts key with
                | Some c -> incr c
                | None ->
                    Hashtbl.add counts key (ref 1);
                    order := (key, (n.pnode, v), r.attr) :: !order
              end)
            (Provdb.records_at db n.pnode ~version:v))
        (Provdb.versions db n.pnode))
    (sorted_nodes db);
  List.filter_map
    (fun (key, (p, v), attr) ->
      match Hashtbl.find_opt counts key with
      | Some { contents = c } when c > 1 ->
          Some
            (finding ~pass:name
               ~subject:(pv_to_string (p, v))
               ~detail:
                 (Printf.sprintf
                    "record %s occurs %d times at the same (pnode, version) — analyzer dedup key violated"
                    attr c)
               ~repro:
                 (Printf.sprintf "records_at p%d version %d, attr %s" (Pnode.to_int p) v attr)
               ())
      | _ -> None)
    (List.rev !order)

(* --- pass: cross-layer reference integrity --------------------------------- *)

let pass_xlayer db =
  let name = "xlayer-refs" in
  List.filter_map
    (fun (n : Provdb.node) ->
      if n.declared then None
      else
        let refs = Provdb.in_edges db n.pnode in
        let records = Provdb.records_all db n.pnode in
        match (refs, records) with
        | [], [] -> None (* inert stub, nothing depends on it *)
        | _ ->
            let referrer =
              match refs with
              | (p, v, attr, _) :: _ ->
                  Printf.sprintf "referenced by %s via %s" (pv_to_string (p, v)) attr
              | [] -> "carries records but was never announced"
            in
            Some
              (finding ~pass:name
                 ~subject:(Printf.sprintf "p%d" (Pnode.to_int n.pnode))
                 ~detail:
                   ("identity never declared by any layer (no Map/Mkobj frame); "
                  ^ referrer)
                 ~repro:
                   (Printf.sprintf "in_edges p%d" (Pnode.to_int n.pnode))
                 ()))
    (sorted_nodes db)

(* --- pass: orphan-set agreement -------------------------------------------- *)

let pass_orphans ~recovery ~waldo =
  let name = "orphan-agreement" in
  let r = List.sort_uniq Int.compare recovery in
  let w = List.sort_uniq Int.compare waldo in
  let missing l txn = not (List.exists (Int.equal txn) l) in
  let only_r = List.filter (missing w) r and only_w = List.filter (missing r) w in
  List.map
    (fun txn ->
      finding ~pass:name ~subject:(Printf.sprintf "txn %d" txn)
        ~detail:
          "recovery scan reports the transaction open but Waldo's replay does not buffer it"
        ~repro:"compare Recovery.scan open_txns with Waldo.pending_txns" ())
    only_r
  @ List.map
      (fun txn ->
        finding ~pass:name ~subject:(Printf.sprintf "txn %d" txn)
          ~detail:
            "Waldo's replay buffers the transaction but the recovery scan does not report it open"
          ~repro:"compare Recovery.scan open_txns with Waldo.pending_txns" ())
      only_w

(* --- driver ---------------------------------------------------------------- *)

let pass_names =
  [ "acyclicity"; "version-chain"; "ancestor-closure"; "dedup-idempotence";
    "xlayer-refs"; "orphan-agreement" ]

let check_db ?registry ?(volume = "local") ?recovery_orphans ?waldo_orphans db =
  let graph =
    pass_acyclicity db @ pass_version_chain db @ pass_closure db
    @ pass_dedup db @ pass_xlayer db
  in
  let orphan_ran, orphan =
    match (recovery_orphans, waldo_orphans) with
    | Some recovery, Some waldo -> (true, pass_orphans ~recovery ~waldo)
    | _ -> (false, [])
  in
  let findings = graph @ orphan in
  Telemetry.incr (Telemetry.counter ?registry "pvcheck.runs");
  Telemetry.add (Telemetry.counter ?registry "pvcheck.findings")
    (List.length findings);
  let passes =
    List.filter
      (fun p -> orphan_ran || not (String.equal p "orphan-agreement"))
      pass_names
  in
  {
    r_volume = volume;
    r_nodes = Provdb.node_count db;
    r_quads = Provdb.quad_count db;
    r_edges = List.length (edges_of db);
    r_passes = passes;
    r_findings = findings;
  }

(* Offline fsck over a volume's lower file system: load the persisted
   database (if any), replay the WAP logs still on disk through the same
   ingest path the live daemon uses — so the checker cannot diverge from
   the ingester — and run every pass, including orphan agreement against
   an independent recovery scan. *)

let ( let* ) = Result.bind

let fsck ?registry ~lower ~volume () =
  (* a volume that never saw a provenance-aware mount has no /.pass; its
     (empty) graph trivially verifies, with no orphans on either side *)
  let* recovery_orphans =
    match Recovery.scan ?registry lower with
    | Ok scan -> Ok scan.Recovery.open_txns
    | Error Vfs.ENOENT -> Ok []
    | Error e -> Error e
  in
  (* exactly the production restart path — adopt the checkpoint image if
     there is one, restore in-flight transactions, replay the logs it
     does not cover — then pull the cold-tier archive in so the checks
     see the full graph *)
  let* w, _info = Waldo.recover ?registry ~lower () in
  let* () = Waldo.fault_in_archive w in
  Ok
    (check_db ?registry ~volume ~recovery_orphans
       ~waldo_orphans:(Waldo.pending_txns w) (Waldo.db w))

(* --- output ----------------------------------------------------------------- *)

let finding_to_json f =
  Telemetry.Json.Obj
    [
      ("pass", Telemetry.Json.Str f.f_pass);
      ("severity", Telemetry.Json.Str (severity_to_string f.f_severity));
      ("subject", Telemetry.Json.Str f.f_subject);
      ("detail", Telemetry.Json.Str f.f_detail);
      ("repro", Telemetry.Json.Str f.f_repro);
    ]

let report_to_json r =
  Telemetry.Json.Obj
    [
      ("schema", Telemetry.Json.Str "pvcheck/v1");
      ("volume", Telemetry.Json.Str r.r_volume);
      ("nodes", Telemetry.Json.Int r.r_nodes);
      ("quads", Telemetry.Json.Int r.r_quads);
      ("edges", Telemetry.Json.Int r.r_edges);
      ("passes", Telemetry.Json.List (List.map (fun p -> Telemetry.Json.Str p) r.r_passes));
      ("clean", Telemetry.Json.Bool (clean r));
      ("findings", Telemetry.Json.List (List.map finding_to_json r.r_findings));
    ]

let pp_report ppf r =
  Format.fprintf ppf "pvcheck %s: %d nodes, %d quads, %d edges; %d passes@."
    r.r_volume r.r_nodes r.r_quads r.r_edges (List.length r.r_passes);
  match r.r_findings with
  | [] -> Format.fprintf ppf "clean: no findings@."
  | fs ->
      Format.fprintf ppf "%d finding(s):@." (List.length fs);
      List.iter
        (fun f ->
          Format.fprintf ppf "  [%s] %s %s: %s@.      repro: %s@."
            (severity_to_string f.f_severity)
            f.f_pass f.f_subject f.f_detail f.f_repro)
        fs
