(* pvtrace: causal span tracing for the provenance pipeline (DESIGN §10).

   The provenance of a provenance record: which syscall bred it, which
   layer deduplicated / cycle-broke / cached / flushed / replayed it, and
   what each hop cost in simulated time.  Spans form a tree per root
   (system call or stray event); the PA-NFS client exports the ambient
   context into the call envelope so server-side spans parent onto the
   originating client RPC span across the wire.

   Determinism is load-bearing (DESIGN §9): ids come from sequential
   allocators, timestamps from the simulated machine clock, and recording
   never advances that clock, so enabling tracing cannot perturb a run.
   The flight recorder is a bounded ring that overwrites the oldest span.
   Because spans are recorded at completion and a parent always completes
   after its children — remote parents included: the client RPC span
   outlives the server work it caused — eviction removes children before
   their parents, so surviving spans never dangle.

   Zero-cost when disabled, after lib/fault's gate: [disabled] is a
   singleton whose every hook is one branch, and layers default to it. *)

type span = {
  sp_trace : int;
  sp_id : int;
  sp_parent : int;
  sp_layer : string;
  sp_op : string;
  sp_pnode : int;
  sp_start_ns : int;
  sp_dur_ns : int;
  sp_outcome : string;
}

(* An open span.  Virtual frames carry a wire-received context: they give
   parentage to children but are never recorded themselves. *)
type frame = {
  f_trace : int;
  f_id : int;
  f_parent : int;
  f_layer : string;
  f_op : string;
  f_pnode : int;
  f_start : int;
  mutable f_outcome : string;
  f_virtual : bool;
}

type t = {
  on : bool;
  cap : int;
  ring : span option array; (* [||] when disabled *)
  mutable head : int; (* next write slot *)
  mutable filled : int;
  mutable lifetime : int; (* total spans ever recorded *)
  mutable next_trace : int;
  mutable next_span : int;
  mutable stack : frame list; (* innermost open span first *)
  mutable now : unit -> int;
  mutable sink : (span -> unit) option; (* completion hook (pvmon's fold) *)
}

let zero () = 0

let disabled =
  { on = false; cap = 0; ring = [||]; head = 0; filled = 0; lifetime = 0;
    next_trace = 1; next_span = 1; stack = []; now = zero; sink = None }

let default_capacity = 1 lsl 18

let create ?(capacity = default_capacity) ?(now = zero) () =
  let cap = max 1 capacity in
  { on = true; cap; ring = Array.make cap None; head = 0; filled = 0;
    lifetime = 0; next_trace = 1; next_span = 1; stack = []; now;
    sink = None }

let set_now t now = if t.on then t.now <- now
let enabled t = t.on
let recorded t = t.filled
let total t = t.lifetime
let dropped t = t.lifetime - t.filled

let reset t =
  if t.on then begin
    Array.fill t.ring 0 t.cap None;
    t.head <- 0;
    t.filled <- 0;
    t.lifetime <- 0;
    t.stack <- []
  end

(* [record] is the single point every completed span passes through
   (span finish and instantaneous events alike), so the sink sees the
   full completion stream in order — children before parents, which is
   what makes pvmon's streaming attribution fold exact. *)
let record t sp =
  t.lifetime <- t.lifetime + 1;
  t.ring.(t.head) <- Some sp;
  t.head <- (t.head + 1) mod t.cap;
  if t.filled < t.cap then t.filled <- t.filled + 1;
  match t.sink with None -> () | Some f -> f sp

let on_record t f = if t.on then t.sink <- Some f

(* The (layer, op) path of currently-open real spans, outermost first.
   A span's own frame is popped before it is recorded, so from inside a
   sink this is exactly the recorded span's ancestor path.  Virtual
   (wire-context) frames carry no layer and are skipped. *)
let open_frames t =
  if not t.on then []
  else
    List.rev
      (List.filter_map
         (fun fr -> if fr.f_virtual then None else Some (fr.f_layer, fr.f_op))
         t.stack)

let spans t =
  if not t.on then []
  else begin
    let start = if t.filled < t.cap then 0 else t.head in
    List.init t.filled (fun i ->
        match t.ring.((start + i) mod t.cap) with
        | Some sp -> sp
        | None -> assert false)
  end

(* Parentage for a new span or event: the innermost open frame, else a
   fresh trace rooted at 0. *)
let parentage t =
  match t.stack with
  | fr :: _ -> (fr.f_trace, fr.f_id)
  | [] ->
      let id = t.next_trace in
      t.next_trace <- id + 1;
      (id, 0)

let pop t fr =
  match t.stack with
  | top :: rest when top == fr -> t.stack <- rest
  | _ ->
      (* an escape (exception unwound past intermediate frames): drop
         everything down to and including [fr] *)
      let rec strip = function
        | [] -> []
        | top :: rest -> if top == fr then rest else strip rest
      in
      t.stack <- strip t.stack

let finish t fr =
  pop t fr;
  record t
    { sp_trace = fr.f_trace; sp_id = fr.f_id; sp_parent = fr.f_parent;
      sp_layer = fr.f_layer; sp_op = fr.f_op; sp_pnode = fr.f_pnode;
      sp_start_ns = fr.f_start; sp_dur_ns = t.now () - fr.f_start;
      sp_outcome = fr.f_outcome }

let span t ~layer ~op ?(pnode = 0) f =
  if not t.on then f ()
  else begin
    let trace, parent = parentage t in
    let id = t.next_span in
    t.next_span <- id + 1;
    let fr =
      { f_trace = trace; f_id = id; f_parent = parent; f_layer = layer;
        f_op = op; f_pnode = pnode; f_start = t.now (); f_outcome = "ok";
        f_virtual = false }
    in
    t.stack <- fr :: t.stack;
    match f () with
    | v ->
        finish t fr;
        v
    | exception e ->
        finish t fr;
        raise e
  end

let event t ~layer ~op ?(pnode = 0) ~outcome () =
  if t.on then begin
    let trace, parent = parentage t in
    let id = t.next_span in
    t.next_span <- id + 1;
    let ts = t.now () in
    record t
      { sp_trace = trace; sp_id = id; sp_parent = parent; sp_layer = layer;
        sp_op = op; sp_pnode = pnode; sp_start_ns = ts; sp_dur_ns = 0;
        sp_outcome = outcome }
  end

let set_outcome t outcome =
  if t.on then
    let rec go = function
      | [] -> ()
      | fr :: rest -> if fr.f_virtual then go rest else fr.f_outcome <- outcome
    in
    go t.stack

let current t =
  if not t.on then None
  else match t.stack with [] -> None | fr :: _ -> Some (fr.f_trace, fr.f_id)

let with_remote_parent t ~trace ~span:span_id f =
  if (not t.on) || trace = 0 then f ()
  else begin
    let fr =
      { f_trace = trace; f_id = span_id; f_parent = 0; f_layer = "";
        f_op = ""; f_pnode = 0; f_start = 0; f_outcome = ""; f_virtual = true }
    in
    t.stack <- fr :: t.stack;
    match f () with
    | v ->
        pop t fr;
        v
    | exception e ->
        pop t fr;
        raise e
  end

(* --- exporters ------------------------------------------------------------- *)

let name sp = sp.sp_layer ^ "." ^ sp.sp_op

let keep filter sp =
  match filter with
  | None -> true
  | Some prefix ->
      Telemetry.name_under ~prefix sp.sp_layer
      || Telemetry.name_under ~prefix (name sp)

(* Export order: by (start, id).  The ring is already deterministic; the
   sort makes the artifact stable under refactors that only move the
   point of completion, and reads chronologically in Perfetto. *)
let export_spans ?filter t =
  List.sort
    (fun a b ->
      match Int.compare a.sp_start_ns b.sp_start_ns with
      | 0 -> Int.compare a.sp_id b.sp_id
      | c -> c)
    (List.filter (keep filter) (spans t))

(* Fixed-point microseconds from integer ns: deterministic, no float
   formatting in the artifact. *)
let us_of_ns buf ns =
  Buffer.add_string buf (Printf.sprintf "%d.%03d" (ns / 1000) (abs ns mod 1000))

let to_chrome ?filter t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"name\":\"";
      Buffer.add_string buf (Telemetry.Json.escape (name sp));
      Buffer.add_string buf "\",\"cat\":\"";
      Buffer.add_string buf (Telemetry.Json.escape sp.sp_layer);
      Buffer.add_string buf "\",\"ph\":\"X\",\"ts\":";
      us_of_ns buf sp.sp_start_ns;
      Buffer.add_string buf ",\"dur\":";
      us_of_ns buf sp.sp_dur_ns;
      Buffer.add_string buf ",\"pid\":1,\"tid\":";
      Buffer.add_string buf (string_of_int sp.sp_trace);
      Buffer.add_string buf ",\"args\":{\"trace\":";
      Buffer.add_string buf (string_of_int sp.sp_trace);
      Buffer.add_string buf ",\"span\":";
      Buffer.add_string buf (string_of_int sp.sp_id);
      Buffer.add_string buf ",\"parent\":";
      Buffer.add_string buf (string_of_int sp.sp_parent);
      Buffer.add_string buf ",\"pnode\":";
      Buffer.add_string buf (string_of_int sp.sp_pnode);
      Buffer.add_string buf ",\"outcome\":\"";
      Buffer.add_string buf (Telemetry.Json.escape sp.sp_outcome);
      Buffer.add_string buf "\"}}")
    (export_spans ?filter t);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let to_json ?filter t =
  let module J = Telemetry.Json in
  let sps = export_spans ?filter t in
  let span_json sp =
    J.Obj
      [
        ("trace", J.Int sp.sp_trace);
        ("span", J.Int sp.sp_id);
        ("parent", J.Int sp.sp_parent);
        ("layer", J.Str sp.sp_layer);
        ("op", J.Str sp.sp_op);
        ("pnode", J.Int sp.sp_pnode);
        ("start_ns", J.Int sp.sp_start_ns);
        ("dur_ns", J.Int sp.sp_dur_ns);
        ("outcome", J.Str sp.sp_outcome);
      ]
  in
  J.Obj
    [
      ("schema", J.Str "pvtrace/v1");
      ("count", J.Int (List.length sps));
      ("total", J.Int t.lifetime);
      ("dropped", J.Int (dropped t));
      ("capacity", J.Int (if t.on then t.cap else 0));
      ("spans", J.List (List.map span_json sps));
    ]
