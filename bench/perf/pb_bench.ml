(* The benchmark loop: rounds, measurement and metrics.

   A run repeats rounds of one workload until --seconds have passed.  A
   round builds a fresh machine from the seed (timed as set-up), runs the
   timed phase as a closed loop -- one client, one op at a time, each
   op's inputs generated before its timer starts -- then drains, checks
   and restarts outside the timing.

   --trace 0 runs untraced rounds on machines built as users get them
   and reports the end-to-end metrics.  --trace 1 runs one untraced
   round, then traced rounds on the shimmed mirror, and reports the
   per-layer metrics; the mirror must reproduce the untraced round's
   simulated time, WAP bytes and database bytes exactly. *)

module M = Pb_machine
module H = Pb_host

let workloads = [ "mailstore_local"; "build_nfs"; "restart_query" ]

(* A run cycles through [variants] op streams derived from its seed, so
   its timings average over several streams rather than hang on one.
   Round [i] runs variant [i mod variants]; rounds of the same variant
   must repeat each other's simulated figures exactly. *)
let variants = 4

(* Sizes.  [smoke] is a tiny size for the self-tests. *)
let start ~smoke ~traced ~seed = function
  | "mailstore_local" ->
      Pb_mail.setup ~traced ~seed
        (if smoke then { pool = 30; ops = 60 } else { pool = 400; ops = 1500 })
  | "build_nfs" -> Pb_build.setup_nfs ~traced ~seed ~units:(if smoke then 24 else 1500)
  | "restart_query" ->
      Pb_query.setup ~traced ~seed
        (if smoke then { units = 40; queries = 60; sampled = 6 }
         else { units = 2000; queries = 1500; sampled = 6 })
  | w -> invalid_arg ("unknown workload " ^ w)

(* --- metrics -------------------------------------------------------------- *)

let end_to_end =
  [ ("setup_s", "s"); ("op_per_s", "ops/s"); ("op_p50_us", "us"); ("op_p99_us", "us");
    ("alloc_words_per_op", "words/op"); ("sim_ms", "ms"); ("prov_space_ratio", "ratio");
    ("recover_ms", "ms") ]

let layers =
  [ "simos"; "analyzer"; "distributor"; "lasagna"; "waldo"; "ext3"; "panfs_client";
    "panfs_server"; "pql"; "bench" ]

let per_layer =
  List.concat_map (fun l -> [ (l ^ ".calls", "count"); (l ^ ".self_ms", "ms") ]) layers
  @ [ ("simos.syscalls_per_op", "calls/op"); ("analyzer.records_in", "count");
      ("analyzer.keep_ratio", "ratio"); ("analyzer.freezes", "count");
      ("distributor.flushes", "count"); ("lasagna.wap_frames", "count");
      ("lasagna.group_commits", "count"); ("lasagna.wap_bytes_per_data_byte", "ratio");
      ("waldo.records_ingested", "count"); ("ext3.cache_hit_ratio", "ratio");
      ("simdisk.blocks_read", "count"); ("simdisk.blocks_written", "count");
      ("simdisk.seeks", "count"); ("simdisk.bytes_written_per_data_byte", "ratio");
      ("panfs.rpcs_per_op", "rpcs/op"); ("panfs.wire_bytes_per_op", "B/op");
      ("panfs.retries", "count"); ("panfs.drc_hits", "count"); ("pql.prepare_ms", "ms");
      ("pql.execute_ms", "ms"); ("pql.examined_per_row", "ratio"); ("restart.mount_ms", "ms");
      ("restart.recover_ms", "ms"); ("restart.frames_replayed", "count");
      ("gc.minor_collections", "count"); ("gc.major_collections", "count");
      ("gc.promoted_words_per_op", "words/op"); ("trace.overhead_pct", "%") ]

(* Registry counters read around the timed phase. *)
let counters =
  [ "analyzer.records_in"; "analyzer.records_out"; "analyzer.freezes"; "distributor.flushes";
    "wap.frames_written"; "wap.group_commits"; "wap.bytes_written"; "lasagna.data_bytes";
    "waldo.records_ingested"; "disk.reads"; "disk.writes"; "disk.seeks"; "disk.bytes_written";
    "panfs.rpcs"; "nfs.retries"; "nfs.drc.hits" ]

(* --- one round ------------------------------------------------------------ *)

type round = {
  setup_ns : int;
  lat_ns : int array;  (* per op, by the benchmark's own timer *)
  speed : float;  (* nominal / measured probe time over the timed phase *)
  words_per_op : float;
  gc : H.gc;  (* collections and promotion during the timed phase *)
  sim_ns : int;
  prov_bytes : int;  (* Provdb db + index bytes, before the crash *)
  user_bytes : int;
  image : Digest.t;  (* digest of the pre-crash database image *)
  wap_bytes : int;
  restart : M.restart;
  failed_ops : int;
  checks : (string * bool) list;
  deltas : (string * int) list;
  syscalls : int;
  cache : int * int;  (* ext3 page-cache hits, misses *)
  wire_bytes : int;
  extra : (string * float) list;
  fold : Pb_stats.fold option;
  ops_ns : (string * int) list;  (* traced: inclusive time per layer.op *)
}

(* The traced rounds' span sink: folds only spans of the timed phase. *)
type tracing = {
  tr : Pvtrace.t;
  mutable fold : Pb_stats.fold option;
  by_op : (string, int) Hashtbl.t;
  mutable chrome : string option;  (* the first traced timed phase's spans *)
}

let tracing () =
  let t = { tr = Pvtrace.create ~capacity:16384 ~now:H.now_ns (); fold = None;
            by_op = Hashtbl.create 16; chrome = None } in
  Pvtrace.on_record t.tr (fun sp ->
      match t.fold with
      | None -> ()
      | Some f ->
          Pb_stats.add_span f sp;
          let key = sp.sp_layer ^ "." ^ sp.sp_op in
          Hashtbl.replace t.by_op key
            (sp.sp_dur_ns + Option.value (Hashtbl.find_opt t.by_op key) ~default:0));
  t

let snapshot (m : M.t) = List.map (fun c -> (c, M.counter m c)) counters

let wire_bytes (m : M.t) =
  match m.store with Remote { net = Some net; _ } -> net.bytes | _ -> 0

(* A root span of the benchmark loop: one op, or the restart that opens a timed
   phase.  Its trace id is the op id; every shim span nests under it. *)
let root tracing op f =
  match tracing with None -> f () | Some t -> Pvtrace.span t.tr ~layer:"bench" ~op f

let run_round ~smoke ~seed ~tracing ~verify workload =
  let t0 = H.now_ns () in
  let traced = Option.map (fun t -> t.tr) tracing in
  let (r : Pb_round.t) = start ~smoke ~traced ~seed workload in
  let m = r.m in
  (* drain, then checkpoint: what a crash restart recovers from *)
  let settle () =
    let orphans = m.drain () in
    let db = M.data_db m in
    let prov = Provdb.db_bytes db + Provdb.index_bytes db in
    M.ok "checkpoint" (Waldo.checkpoint (M.data_waldo m));
    (orphans, prov, Provdb.serialize (M.data_db m))
  in
  let before = if r.restart_first then Some (settle ()) else None in
  let setup_ns = H.now_ns () - t0 in
  (* --- timed phase --- *)
  let c0 = snapshot m and sys0 = Kernel.syscall_count m.kernel in
  let cache0 = Ext3.cache_stats (M.data_ext3 m) and wire0 = wire_bytes m in
  let gc0 = H.gc () in
  Option.iter
    (fun t ->
      Hashtbl.reset t.by_op;
      Pvtrace.reset t.tr;
      t.fold <- Some (Pb_stats.fold ()))
    tracing;
  let sim0 = Simdisk.Clock.now m.clock in
  let early =
    if r.restart_first then begin
      let rs, db = root tracing "restart" (fun () -> M.restart m) in
      r.adopt db;
      Some (rs, db)
    end
    else None
  in
  let lat = Array.make r.n_ops 0 in
  let words = ref 0. and failed = ref 0 and probes = ref [] in
  (* the host-speed probe runs between ops, outside every timer *)
  let overhead = Lazy.force H.words_overhead in
  for i = 0 to r.n_ops - 1 do
    if i mod 25 = 0 then probes := float_of_int (H.probe ()) :: !probes;
    let op = r.gen i in
    let w0 = H.words () in
    let s = H.now_ns () in
    let ok = try root tracing "op" op.run; true with _ -> false in
    let e = H.now_ns () in
    let w1 = H.words () in
    lat.(i) <- e - s;
    words := !words +. (w1 -. w0 -. overhead);
    if not (ok && op.check ()) then incr failed
  done;
  let sim_ns = Simdisk.Clock.now m.clock - sim0 in
  let fold = Option.bind tracing (fun t -> t.fold) in
  let ops_ns =
    match tracing with
    | None -> []
    | Some t ->
        t.fold <- None;
        if Option.is_none t.chrome then t.chrome <- Some (Pvtrace.to_chrome t.tr);
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.by_op []
  in
  let gc = H.gc_delta gc0 (H.gc ()) in
  (* --- after the timed phase --- *)
  let orphans, prov_bytes, image =
    match before with Some b -> b | None -> settle ()
  in
  let c1 = snapshot m in
  let deltas = List.map2 (fun (n, a) (_, b) -> (n, b - a)) c0 c1 in
  let cache1 = Ext3.cache_stats (M.data_ext3 m) in
  let checks = if verify then r.verify () else [] in
  let restart, recovered = match early with Some e -> e | None -> M.restart m in
  let checks =
    checks
    @ [ ("no orphaned transactions", orphans = 0);
        ("recovered db equals the pre-crash db", String.equal (Provdb.serialize recovered) image);
        ("recovered db indexes verify", Result.is_ok (Provdb.verify_indexes recovered)) ]
  in
  {
    setup_ns; lat_ns = lat; speed = float_of_int H.probe_nominal_ns /. Pb_stats.median !probes;
    words_per_op = !words /. float_of_int (max 1 r.n_ops); gc; sim_ns;
    prov_bytes; user_bytes = r.user_bytes (); image = Digest.string image;
    wap_bytes = M.counter m "wap.bytes_written"; restart; failed_ops = !failed; checks; deltas;
    syscalls = Kernel.syscall_count m.kernel - sys0;
    cache = (fst cache1 - fst cache0, snd cache1 - snd cache0);
    wire_bytes = wire_bytes m - wire0; extra = r.extra (); fold; ops_ns;
  }

(* --- a run ---------------------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
  notes : string list;  (* the human-readable report *)
}

(* The simulated figures every round of one seed repeats exactly, traced
   or not: a host-only change must leave them bit-identical. *)
let same_program a b =
  a.sim_ns = b.sim_ns && a.wap_bytes = b.wap_bytes && a.prov_bytes = b.prov_bytes
  && Digest.equal a.image b.image

let ns_to s = float_of_int s /. 1e9
let ratio a b = if b = 0. then 0. else a /. b
let median_of f rounds = Pb_stats.median (List.map f rounds)

(* Host throughput: ops per second of summed op time. *)
let op_per_s rounds =
  let ops = List.fold_left (fun acc r -> acc + Array.length r.lat_ns) 0 rounds in
  let ns = List.fold_left (fun acc r -> Array.fold_left ( + ) acc r.lat_ns) 0 rounds in
  ratio (float_of_int ops) (ns_to ns)

(* Host timings are taken per round and the median round reported: a
   round disturbed by a neighbour on a shared host moves it little.
   Every round has at least 1000 ops, so its p99 has ten samples beyond.
   Figures the op stream fixes (words, simulated time, space) are exact
   per seed. *)
let end_to_end_metrics rounds =
  let pct r p = Pb_stats.percentile (Array.map float_of_int r.lat_ns) p in
  (* figures fixed by the op stream: the mean over one round of each variant *)
  let per_variant f =
    let firsts = List.filteri (fun i _ -> i < variants) rounds in
    List.fold_left (fun acc r -> acc +. f r) 0. firsts /. float_of_int (List.length firsts)
  in
  let first = List.hd rounds in
  let metrics =
    [ median_of (fun r -> ns_to r.setup_ns *. r.speed) rounds;
      median_of (fun r -> op_per_s [ r ] /. r.speed) rounds;
      median_of (fun r -> (pct r 50.).value /. 1e3 *. r.speed) rounds;
      median_of (fun r -> (pct r 99.).value /. 1e3 *. r.speed) rounds;
      per_variant (fun r -> r.words_per_op); per_variant (fun r -> float_of_int r.sim_ns /. 1e6);
      per_variant (fun r -> ratio (float_of_int r.prov_bytes) (float_of_int r.user_bytes));
      median_of (fun r -> H.ms_of_ns (r.restart.mount_ns + r.restart.recover_ns) *. r.speed)
        rounds ]
  in
  let p99 = pct first 99. in
  let notes =
    [ Printf.sprintf
        "timings: median of %d rounds; each round's op latencies are %d samples (p99 has %d beyond)"
        (List.length rounds) p99.samples p99.beyond;
      Printf.sprintf
        "host speed: median probe-scale %.3f (host timings below are scaled to the nominal \
         probe; unscaled: op_per_s %.6g, op_p50_us %.6g)"
        (median_of (fun r -> r.speed) rounds) (median_of (fun r -> op_per_s [ r ]) rounds)
        (median_of (fun r -> (pct r 50.).value /. 1e3) rounds) ]
  in
  (List.map2 (fun (name, unit) v -> (name, v, unit)) end_to_end metrics, notes)

let per_layer_metrics ~base ~traced =
  let k = float_of_int (List.length traced) in
  let first = List.hd traced in
  let n_ops = float_of_int (Array.length first.lat_ns) in
  let d name = float_of_int (List.assoc name first.deltas) in
  let layer name =
    List.fold_left
      (fun (calls, self) (r : round) ->
        match r.fold with
        | Some f -> (
            match Hashtbl.find_opt f.Pb_stats.layers name with
            | Some l -> (calls + l.calls, self + l.self_ns)
            | None -> (calls, self))
        | None -> (calls, self))
      (0, 0) traced
  in
  let by_op key =
    List.fold_left
      (fun acc r -> acc + Option.value (List.assoc_opt key r.ops_ns) ~default:0)
      0 traced
  in
  let hits, misses = first.cache in
  let layer_rows =
    List.concat_map
      (fun l ->
        let calls, self = layer l in
        [ float_of_int calls /. k; H.ms_of_ns self /. k ])
      layers
  in
  let rows =
    layer_rows
    @ [ float_of_int first.syscalls /. n_ops; d "analyzer.records_in";
        ratio (d "analyzer.records_out") (d "analyzer.records_in"); d "analyzer.freezes";
        d "distributor.flushes"; d "wap.frames_written"; d "wap.group_commits";
        ratio (d "wap.bytes_written") (d "lasagna.data_bytes"); d "waldo.records_ingested";
        ratio (float_of_int hits) (float_of_int (hits + misses)); d "disk.reads";
        d "disk.writes"; d "disk.seeks"; ratio (d "disk.bytes_written") (d "lasagna.data_bytes");
        d "panfs.rpcs" /. n_ops; float_of_int first.wire_bytes /. n_ops; d "nfs.retries";
        d "nfs.drc.hits"; H.ms_of_ns (by_op "pql.prepare") /. k;
        H.ms_of_ns (by_op "pql.execute") /. k;
        Option.value (List.assoc_opt "pql.examined_per_row" first.extra) ~default:0.;
        median_of (fun r -> H.ms_of_ns r.restart.mount_ns) traced;
        median_of (fun r -> H.ms_of_ns r.restart.recover_ns) traced;
        float_of_int first.restart.frames_replayed; base.gc.minor; base.gc.major;
        base.gc.promoted /. n_ops;
        (ratio (op_per_s [ base ]) (op_per_s traced) -. 1.) *. 100. ]
  in
  List.map2 (fun (name, unit) v -> (name, v, unit)) per_layer rows

(* Rounds until [seconds] have passed, and at least [min_rounds]. *)
let repeat ~seconds ~min_rounds f =
  let t0 = H.now_ns () in
  let rec go acc i =
    if i >= min_rounds && H.now_ns () - t0 >= seconds * 1_000_000_000 then List.rev acc
    else go (f i :: acc) (i + 1)
  in
  go [] 0

let run ?(smoke = false) ?trace_file ~workload ~seed ~seconds ~trace () =
  (* the costly whole-database checks run once per variant: later rounds
     of a variant prove they built the same database by its image *)
  let round ?tracing i =
    run_round ~smoke ~seed:((seed * variants) + (i mod variants)) ~tracing
      ~verify:(i < variants) workload
  in
  let rounds, metrics, notes, checks =
    if not trace then begin
      let rounds = repeat ~seconds ~min_rounds:variants (fun i -> round i) in
      let metrics, notes = end_to_end_metrics rounds in
      (rounds, metrics, notes, [])
    end
    else begin
      (* the untraced round and the traced rounds all run variant 0 *)
      let base = round 0 in
      let tracing = tracing () in
      let traced =
        repeat ~seconds ~min_rounds:2 (fun i -> round ~tracing (variants * (i + 1)))
      in
      let opens = if String.equal workload "restart_query" then 1 else 0 in
      let conserved =
        List.for_all
          (fun r ->
            match (r : round).fold with
            | Some f -> Pb_stats.conserved f && f.roots = Array.length r.lat_ns + opens
            | None -> false)
          traced
      in
      Option.iter
        (fun path ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (Option.value tracing.chrome ~default:"")))
        trace_file;
      ( base :: traced, per_layer_metrics ~base ~traced,
        [ Printf.sprintf "traced rounds: %d (spans recorded %d, kept %d)" (List.length traced)
            (Pvtrace.total tracing.tr) (Pvtrace.recorded tracing.tr) ],
        [ ("traced mirror reproduces the untraced run", List.for_all (same_program base) traced);
          ("layer self times sum to op time", conserved) ] )
    end
  in
  let repeats =
    List.for_all2
      (fun i r -> same_program (List.nth rounds (i mod variants)) r)
      (List.init (List.length rounds) Fun.id)
      rounds
  in
  let checks =
    List.concat_map (fun r -> r.checks) rounds
    @ [ ("rounds of a variant repeat each other", trace || repeats) ]
    @ checks
  in
  let failed_checks = List.filter (fun (_, ok) -> not ok) checks in
  let failed_ops = List.fold_left (fun acc r -> acc + r.failed_ops) 0 rounds in
  let attempted = List.fold_left (fun acc r -> acc + Array.length r.lat_ns) 0 rounds in
  let failed = failed_ops + List.length failed_checks in
  let notes =
    notes
    @ [ Printf.sprintf "op_fail_ratio = %g (%d of %d ops failed)"
          (ratio (float_of_int failed_ops) (float_of_int attempted)) failed_ops attempted ]
    @ List.map (fun (name, _) -> "FAILED CHECK: " ^ name) failed_checks
  in
  { correct = failed = 0; attempted; failed; metrics; notes }

let to_json r =
  let module J = Telemetry.Json in
  J.to_string
    (J.Obj
       [ ("correct", J.Bool r.correct); ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ("metrics",
          J.Obj
            (List.map
               (fun (name, v, unit) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
               r.metrics)) ])
