(* passlint: the repo's determinism and convention lint.

   The chaos replay harness (DESIGN §9) made whole-codebase determinism
   load-bearing: a single call into wall clocks, host randomness or
   unspecified runtime behaviour silently breaks seed-for-seed replay.
   passlint walks the dune source tree, parses every .ml with
   compiler-libs, and enforces the sandbox syntactically:

   - forbidden-call   no Unix.*, Sys.time/getenv*, Random.*, Hashtbl.hash
                      or Gc.* outside the allowlist below — simulated
                      time comes from the machine clock, randomness from
                      the seeded LCGs in lib/fault and Wk.rng;
   - poly-compare     no bare polymorphic [compare]: it walks arbitrary
                      representations, so its order is not part of any
                      module's contract (use Int.compare, String.compare,
                      a typed comparator, ...);
   - pnode-poly-eq    no polymorphic [=]/[<>] on operands that mention
                      pnodes (use Pnode.equal); heuristic on the operand
                      source text, with comments stripped first so
                      commented-out code cannot trip it;
   - untyped-ignore   no [ignore e] without a type constraint: require
                      [let _ : ty = e] or [ignore (e : ty)] so the
                      discarded result's type is pinned;
   - bare-failwith    no stringly [failwith] on the storage hot paths
                      (lib/lasagna, lib/panfs, lib/waldo) that return
                      typed errors — raise Vfs.Fatal instead;
   - telemetry-name   literal instrument names must be dotted snake_case
                      ("subsystem.metric_name"), matching the registry
                      conventions; likewise literal pvtrace span names
                      (the combined "layer.op" of Pvtrace.span/event and
                      the layer handed to Dpapi.traced);
   - metric-name      literal pvmon SLO rule names (Pvmon.rule ~name) and
                      metric sources (Pvmon.Counter_rate / Gauge_value /
                      Hist_p99 / Span_p99) must be dotted snake_case,
                      matching the instrument or span names they watch;
   - missing-mli      every module under lib/ has an interface, so the
                      lint (and readers) can tell public surface from
                      internals;
   - inplace-metadata-write
                      no direct Vfs.write_file from lib/lasagna or
                      lib/waldo: PASS metadata (images, archives,
                      manifests) must go through Checkpoint.write_atomic
                      so a crash can never tear a published file;
   - unsafe-bytes     no Bytes.unsafe_to_string / unsafe_of_string outside
                      the allowlist: they alias a string and a byte
                      buffer, so a later write to the buffer changes a
                      string someone may hold (simdisk's in-place block
                      patching depends on this staying rare and argued).

   Findings print as file:line:col plus rule and message (or --json);
   exit status is 1 if any finding survives the allowlist, making this a
   CI gate.  The allowlist is part of this source file on purpose: adding
   an entry is a reviewed change with a written justification — and
   --stale-allowlist (run by the test suite) fails when an entry stops
   matching anything, so dead exemptions cannot accumulate.

   The allowlist/finding/walk machinery is shared with passarch (the
   layer-contract analyzer, DESIGN §14) through tools/lintcommon. *)

module Allowlist = Lintcommon.Allowlist
module Finding = Lintcommon.Finding
module Srcutil = Lintcommon.Srcutil

(* --- allowlist ------------------------------------------------------------ *)

let allowlist_entries : Allowlist.entry list =
  [
    { a_path = "bench/"; a_rule = "forbidden-call"; a_symbol = "Sys.time";
      a_why = "bench measures host wall-clock time by design (checker \
               microbench); results are reported, never replayed" };
    { a_path = "bench/"; a_rule = "forbidden-call"; a_symbol = "Sys.getenv_opt";
      a_why = "PASS_BENCH_SCALE is an operator knob read once at startup" };
    { a_path = "test/test_chaos.ml"; a_rule = "forbidden-call";
      a_symbol = "Sys.getenv_opt";
      a_why = "PASS_CHAOS_SEEDS seed override, documented in DESIGN §9" };
    { a_path = "lib/lasagna/checkpoint.ml"; a_rule = "inplace-metadata-write";
      a_symbol = "";
      a_why = "the atomic-persist helper itself: writes only *.tmp staging \
               files and publishes them with a journaled rename" };
    { a_path = "lib/simdisk/disk.ml"; a_rule = "unsafe-bytes";
      a_symbol = "Bytes.unsafe_";
      a_why = "the device's own block copies: each is built in a fresh \
               buffer and converted once; only an owned block (built by \
               the device and handed to no one) is blitted into again, \
               and handing a block out makes it shared first (the Blocks \
               contract in disk.mli, pinned by test_storage)" };
    { a_path = "lib/ext3/ext3.ml"; a_rule = "unsafe-bytes";
      a_symbol = "Bytes.unsafe_to_string";
      a_why = "Ext3.read fills a fresh buffer that escapes only as the \
               returned string" };
    { a_path = "bench/perf/pb_gen.ml"; a_rule = "unsafe-bytes";
      a_symbol = "Bytes.unsafe_to_string";
      a_why = "payload fills a fresh buffer that escapes only as the \
               returned string" };
    { a_path = "test/test_vfs_wire.ml"; a_rule = "forbidden-call";
      a_symbol = "Random.State.make";
      a_why = "pins the QCheck seed of the wire properties to a constant \
               so CI failures replay byte-for-byte; deterministic by \
               construction" };
    { a_path = "test/test_pql.ml"; a_rule = "forbidden-call";
      a_symbol = "Random.State.make";
      a_why = "pins the QCheck seed of the planner-vs-oracle property to \
               a constant so CI failures replay byte-for-byte; \
               deterministic by construction" };
    { a_path = "test/test_panfs.ml"; a_rule = "forbidden-call";
      a_symbol = "Random.State.make";
      a_why = "pins the QCheck seed of the wire-size twin property to a \
               constant so CI failures replay byte-for-byte; \
               deterministic by construction" };
    { a_path = "test/test_telemetry.ml"; a_rule = "forbidden-call";
      a_symbol = "Random.State.make";
      a_why = "pins the QCheck seed of the histogram rank-error property \
               to a constant so CI failures replay byte-for-byte; \
               deterministic by construction" };
  ]

(* --- rule predicates ------------------------------------------------------ *)

let forbidden_prefixes =
  [ "Unix."; "Sys.time"; "Sys.getenv"; "Sys.command"; "Random.";
    "Hashtbl.hash"; "Gc."; "Stdlib.compare"; "Stdlib.Random." ]

let unsafe_bytes_calls =
  List.concat_map
    (fun m -> [ m ^ ".unsafe_to_string"; m ^ ".unsafe_of_string" ])
    [ "Bytes"; "BytesLabels"; "Stdlib.Bytes"; "Stdlib.BytesLabels" ]

let hot_path_dirs = [ "lib/lasagna/"; "lib/panfs/"; "lib/waldo/" ]
let on_hot_path file = Srcutil.under_any hot_path_dirs file

(* The layers that own PASS metadata (WAP logs, images, archives,
   manifests): published files there must be crash-atomic. *)
let on_metadata_path file =
  Srcutil.under_any [ "lib/lasagna/"; "lib/waldo/" ] file

let seg_ok seg =
  (not (String.equal seg ""))
  && String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
       seg

let valid_instrument_name s =
  match String.split_on_char '.' s with
  | [] | [ _ ] -> false
  | segs -> List.for_all seg_ok segs

(* A span layer or op on its own may be a single segment ("simos",
   "emit"); the two-segment rule applies to the combined "layer.op". *)
let valid_span_part s =
  match String.split_on_char '.' s with
  | [] -> false
  | segs -> List.for_all seg_ok segs

(* [src] has comments stripped, so only live operand text counts. *)
let mentions_pnode src (loc : Location.t) =
  let a = loc.loc_start.pos_cnum and b = loc.loc_end.pos_cnum in
  if a < 0 || b > String.length src || b <= a then false
  else
    let text = String.lowercase_ascii (String.sub src a (b - a)) in
    let needle = "pnode" in
    let nl = String.length needle and tl = String.length text in
    let rec scan i = i + nl <= tl && (String.equal (String.sub text i nl) needle || scan (i + 1)) in
    scan 0

(* --- the AST walk --------------------------------------------------------- *)

let lint_structure ~sink ~file ~src structure =
  let open Parsetree in
  let report ~loc ~rule ~symbol msg =
    Finding.report sink ~file ~loc ~rule ~symbol msg
  in
  let ident_name (lid : Longident.t Asttypes.loc) =
    String.concat "." (Longident.flatten lid.txt)
  in
  let check_ident (lid : Longident.t Asttypes.loc) =
    let name = ident_name lid in
    List.iter
      (fun prefix ->
        if
          String.length name >= String.length prefix
          && String.equal (String.sub name 0 (String.length prefix)) prefix
        then
          report ~loc:lid.loc ~rule:"forbidden-call" ~symbol:name
            (name ^ " breaks the determinism sandbox (simulated time comes \
                     from the machine clock, randomness from seeded LCGs)"))
      forbidden_prefixes;
    (match lid.txt with
    | Longident.Ldot (Longident.Lident "Vfs", "write_file")
      when on_metadata_path file ->
        report ~loc:lid.loc ~rule:"inplace-metadata-write" ~symbol:name
          "direct Vfs.write_file to PASS metadata: publish through \
           Checkpoint.write_atomic (temp file + journaled rename) so a \
           crash can never tear an image"
    | _ -> ());
    if List.exists (String.equal name) unsafe_bytes_calls then
      report ~loc:lid.loc ~rule:"unsafe-bytes" ~symbol:name
        (name ^ " aliases a string and a byte buffer: a later write to the \
                 buffer changes the string under whoever holds it; \
                 allowlist the site with the reason nothing writes it");
    (match lid.txt with
    | Longident.Lident "compare" ->
        report ~loc:lid.loc ~rule:"poly-compare" ~symbol:"compare"
          "polymorphic compare: use a typed comparator (Int.compare, \
           String.compare, Pnode.compare, ...)"
    | _ -> ());
    match lid.txt with
    | Longident.Lident "failwith" when on_hot_path file ->
        report ~loc:lid.loc ~rule:"bare-failwith" ~symbol:"failwith"
          "storage hot paths return typed errors; raise Vfs.Fatal (via \
           Vfs.fatal) instead of failwith"
    | _ -> ()
  in
  let iterator =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.pexp_desc with
          | Pexp_ident lid -> check_ident lid
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Lident "ignore"; _ }; _ },
                [ (_, arg) ] ) -> (
              match arg.pexp_desc with
              | Pexp_constraint _ -> ()
              | _ ->
                  report ~loc:e.pexp_loc ~rule:"untyped-ignore"
                    ~symbol:"ignore"
                    "untyped ignore discards a value of unchecked type; \
                     write `let _ : ty = e` or `ignore (e : ty)`")
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>" | "==" | "!=") as op); _ }; _ },
                args ) ->
              if
                List.exists
                  (fun (_, (a : expression)) -> mentions_pnode src a.pexp_loc)
                  args
              then
                report ~loc:e.pexp_loc ~rule:"pnode-poly-eq" ~symbol:op
                  ("polymorphic " ^ op
                 ^ " on a pnode-carrying operand; use Pnode.equal / \
                    Pnode.compare")
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Ldot (Longident.Lident "Telemetry", fn); _ }; _ },
                args )
            when List.mem fn [ "counter"; "gauge"; "histogram" ] ->
              List.iter
                (fun (_, (a : expression)) ->
                  match a.pexp_desc with
                  | Pexp_constant (Pconst_string (s, _, _)) ->
                      if not (valid_instrument_name s) then
                        report ~loc:a.pexp_loc ~rule:"telemetry-name"
                          ~symbol:s
                          (Printf.sprintf
                             "instrument name %S is not dotted snake_case \
                              (\"subsystem.metric_name\")"
                             s)
                  | _ -> ())
                args
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Ldot (Longident.Lident "Pvtrace", fn); _ }; _ },
                args )
            when List.mem fn [ "span"; "event" ] -> (
              (* span names follow the instrument convention: the combined
                 "layer.op" must be dotted snake_case *)
              let literal lbl =
                List.find_map
                  (fun (l, (a : expression)) ->
                    match (l, a.pexp_desc) with
                    | Asttypes.Labelled s, Pexp_constant (Pconst_string (v, _, _))
                      when String.equal s lbl ->
                        Some (v, a.pexp_loc)
                    | _ -> None)
                  args
              in
              let bad loc name =
                report ~loc ~rule:"telemetry-name" ~symbol:name
                  (Printf.sprintf
                     "span name %S is not dotted snake_case \
                      (\"layer.operation\")"
                     name)
              in
              match (literal "layer", literal "op") with
              | Some (layer, loc), Some (op, _) ->
                  let name = layer ^ "." ^ op in
                  if not (valid_instrument_name name) then bad loc name
              | Some (part, loc), None | None, Some (part, loc) ->
                  if not (valid_span_part part) then bad loc part
              | None, None -> ())
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Ldot (Longident.Lident "Dpapi", "traced"); _ }; _ },
                args ) ->
              List.iter
                (fun (l, (a : expression)) ->
                  match (l, a.pexp_desc) with
                  | Asttypes.Labelled "layer", Pexp_constant (Pconst_string (s, _, _)) ->
                      if not (valid_span_part s) then
                        report ~loc:a.pexp_loc ~rule:"telemetry-name"
                          ~symbol:s
                          (Printf.sprintf
                             "traced layer %S is not dotted snake_case" s)
                  | _ -> ())
                args
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Ldot (Longident.Lident "Pvmon", "rule"); _ }; _ },
                args ) ->
              List.iter
                (fun (l, (a : expression)) ->
                  match (l, a.pexp_desc) with
                  | Asttypes.Labelled "name", Pexp_constant (Pconst_string (s, _, _)) ->
                      if not (valid_instrument_name s) then
                        report ~loc:a.pexp_loc ~rule:"metric-name" ~symbol:s
                          (Printf.sprintf
                             "pvmon rule name %S is not dotted snake_case \
                              (\"layer.metric_name\")"
                             s)
                  | _ -> ())
                args
          | Pexp_construct
              ( { txt = Longident.Ldot (Longident.Lident "Pvmon",
                    (("Counter_rate" | "Gauge_value" | "Hist_p99" | "Span_p99")
                     as ctor)); _ },
                Some { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); pexp_loc = sloc; _ } ) ->
              if not (valid_instrument_name s) then
                report ~loc:sloc ~rule:"metric-name" ~symbol:s
                  (Printf.sprintf
                     "Pvmon.%s watches %S, which is not a dotted snake_case \
                      instrument name"
                     ctor s)
          | _ -> ());
          Ast_iterator.default_iterator.expr sub e);
    }
  in
  iterator.structure iterator structure

(* --- driver --------------------------------------------------------------- *)

let lint_file ~sink file =
  let raw = Srcutil.read_file file in
  let src = Srcutil.strip_comments raw in
  let lexbuf = Lexing.from_string raw in
  Location.init lexbuf file;
  match Parse.implementation lexbuf with
  | structure -> lint_structure ~sink ~file ~src structure
  | exception _ ->
      Finding.report sink ~file ~loc:Location.none ~rule:"parse-error"
        ~symbol:"" "file does not parse as an OCaml implementation"

let check_missing_mli ~sink files =
  List.iter
    (fun file ->
      let under_lib =
        String.length file >= 4 && String.equal (String.sub file 0 4) "lib/"
      in
      if under_lib && not (Sys.file_exists (file ^ "i")) then
        Finding.report sink ~file ~loc:Location.none ~rule:"missing-mli"
          ~symbol:""
          "module under lib/ has no .mli: public surface is \
           indistinguishable from internals")
    files

let default_roots () =
  List.filter Sys.file_exists [ "lib"; "bin"; "test"; "bench"; "tools" ]

let allowlist () = Allowlist.create allowlist_entries

(* For the fixture tests: raw findings over explicit files, no allowlist. *)
let findings ~roots () =
  let sink = Finding.sink (Allowlist.create []) in
  let files = Srcutil.walk ~suffix:".ml" roots in
  List.iter (lint_file ~sink) files;
  Finding.sorted sink

(* Run the lint over [roots]; prints findings and returns the exit code. *)
let run ?(roots = []) ?(json = false) ?(stale_check = false) () =
  let roots = match roots with [] -> default_roots () | rs -> rs in
  let allow = allowlist () in
  let sink = Finding.sink allow in
  let files = Srcutil.walk ~suffix:".ml" roots in
  List.iter (lint_file ~sink) files;
  check_missing_mli ~sink files;
  Finding.finish ~tool:"passlint" ~schema:"passlint/v1" ~json ~stale_check
    ~files_scanned:(List.length files) allow sink
