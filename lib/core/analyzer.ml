(* The analyzer (paper §5.4) processes the stream of provenance records,
   eliminates duplicates, and ensures that cyclic dependencies do not arise.

   Duplicate elimination: programs perform I/O in small blocks, so the
   observer emits many identical records (the same process reading the same
   version of the same file).  We remember which (attribute, value) pairs
   have already been recorded against each (object, version) and drop
   repeats.  A pass_write whose bundle dedups to nothing and that carries no
   data never reaches storage at all — this is where the analyzer pays for
   itself in the Table 2 overheads.

   Cycle avoidance: PASSv1 maintained a global dependency graph and merged
   the nodes of any cycle it found, which proved fragile.  PASSv2 instead
   uses a conservative algorithm relying only on an object's local
   information.  Our realization is a version-birth-stamp order: every
   version of every object carries the logical time of its creation, and an
   ancestry edge X -> (Y, v) is admitted only when (Y, v) was born strictly
   before X's current version.  Otherwise the analyzer freezes X — creating
   a newer version whose birth postdates (Y, v) — and admits the edge from
   the new version.  Every admitted edge therefore points strictly backwards
   in birth time, so the graph is acyclic by construction.  The check
   compares exactly two integers, preserving the paper's locality claim. *)

(* Named instruments in the telemetry registry. *)
type instruments = {
  records_in : Telemetry.counter;
  records_out : Telemetry.counter;
  duplicates_dropped : Telemetry.counter;
  freezes : Telemetry.counter;
  writes_elided : Telemetry.counter;
  dedup_evictions : Telemetry.counter;
  adoptions : Telemetry.counter;
}

let instruments registry =
  let c name = Telemetry.counter ?registry ("analyzer." ^ name) in
  {
    records_in = c "records_in";
    records_out = c "records_out";
    duplicates_dropped = c "duplicates_dropped";
    freezes = c "freezes";
    writes_elided = c "writes_elided";
    dedup_evictions = c "dedup_evictions";
    adoptions = c "adoptions";
  }

type t = {
  ctx : Ctx.t;
  lower : Dpapi.endpoint;
  seen : (Pnode.t * int * Record.t, unit) Hashtbl.t;
  dedup_capacity : int; (* bound on the seen-table; kernel memory is finite *)
  i : instruments;
  charge : int -> unit; (* simulated CPU nanoseconds per unit of work *)
  dedup_enabled : bool;
  tracer : Pvtrace.t;
}

(* Rough CPU costs, in simulated nanoseconds, charged per record examined
   and per freeze.  These feed the elapsed-time model of Table 2. *)
let cost_per_record = 180
let cost_per_freeze = 450

let create ?registry ?(charge = fun _ -> ()) ?(dedup = true) ?(dedup_capacity = 1 lsl 18)
    ?(tracer = Pvtrace.disabled) ~ctx ~lower () =
  { ctx; lower; seen = Hashtbl.create 4096; dedup_capacity; i = instruments registry; charge;
    dedup_enabled = dedup; tracer }

let duplicate t pnode version record =
  Hashtbl.mem t.seen (pnode, version, record)

let remember t pnode version record =
  if t.dedup_enabled then begin
    (* bounded memory: when the table fills, drop the whole epoch.  This
       is conservative — forgetting only means a duplicate may be
       re-admitted, never that a first occurrence is lost. *)
    if Hashtbl.length t.seen >= t.dedup_capacity then begin
      Hashtbl.reset t.seen;
      Telemetry.incr t.i.dedup_evictions
    end;
    Hashtbl.replace t.seen (pnode, version, record) ()
  end

(* Emit the records that materialize a freeze of [target]: a FREEZE marker
   carrying the new version number and an ancestry edge from the new version
   to the old one.  These go to storage in the same pass_write stream, which
   is what keeps freeze ordered w.r.t. the writes it protects (§6.1.2). *)
let freeze_records old_version new_version target =
  [
    Record.make Record.Attr.freeze (Pvalue.Int new_version);
    Record.input_of target.Dpapi.pnode old_version;
  ]

let do_freeze t (target : Dpapi.handle) =
  let old_version = Ctx.current_version t.ctx target.pnode in
  let new_version = Ctx.freeze t.ctx target.pnode in
  Telemetry.incr t.i.freezes;
  Pvtrace.event t.tracer ~layer:"analyzer" ~op:"freeze"
    ~pnode:(Pnode.to_int target.pnode) ~outcome:"cycle_broken" ();
  t.charge cost_per_freeze;
  let records = freeze_records old_version new_version target in
  List.iter (remember t target.pnode new_version) records;
  (new_version, Dpapi.entry target records)

(* Process one bundle entry: cycle-avoid ancestry records, dedup everything.
   The output preserves order, with any freeze records inserted immediately
   before the record that forced them, so downstream consumers (the WAP log
   and Waldo) can attribute each record to the right version.  Returns None
   if dedup absorbed the entry entirely. *)
let process_entry t (e : Dpapi.bundle_entry) =
  let target = e.target in
  let out = ref [] in
  let admit record =
    Telemetry.incr t.i.records_in;
    t.charge cost_per_record;
    (match Record.xref_of record with
    | Some { pnode = y; version = vy } when Record.is_ancestry record ->
        let x = target.pnode in
        let self_cycle = Pnode.equal x y && vy >= Ctx.current_version t.ctx x in
        let birth_y = Ctx.birth_at t.ctx y ~version:vy in
        let birth_x = Ctx.birth t.ctx x in
        if self_cycle then begin
          let _new_version, fe = do_freeze t target in
          out := List.rev_append fe.records !out
        end
        else if birth_y >= birth_x then
          if not (Ctx.has_out t.ctx y ~version:vy) then begin
            (* the target version has no dependencies of its own yet:
               adopt the edge by lowering its effective birth instead of
               freezing the source (this is what keeps a long-lived
               process cheap as it reads files younger than itself) *)
            Telemetry.incr t.i.adoptions;
            Pvtrace.event t.tracer ~layer:"analyzer" ~op:"adopt"
              ~pnode:(Pnode.to_int y) ~outcome:"adopted" ();
            Ctx.lower_birth t.ctx y ~version:vy ~below:birth_x
          end
          else begin
            let _new_version, fe = do_freeze t target in
            out := List.rev_append fe.records !out
          end;
        Ctx.mark_out t.ctx x ~version:(Ctx.current_version t.ctx x)
    | Some _ | None -> ());
    let version = Ctx.current_version t.ctx target.pnode in
    if t.dedup_enabled && duplicate t target.pnode version record then begin
      Telemetry.incr t.i.duplicates_dropped;
      Pvtrace.event t.tracer ~layer:"analyzer" ~op:"dedup"
        ~pnode:(Pnode.to_int target.pnode) ~outcome:"deduped" ()
    end
    else begin
      remember t target.pnode version record;
      out := record :: !out
    end
  in
  List.iter admit e.records;
  let records = List.rev !out in
  Telemetry.add t.i.records_out (List.length records);
  if records = [] then None else Some { e with records }

let pass_write t handle ~off ~data bundle =
  let bundle' = List.filter_map (process_entry t) bundle in
  match (data, bundle') with
  | None, [] ->
      Telemetry.incr t.i.writes_elided;
      Pvtrace.set_outcome t.tracer "elided";
      Ok (Ctx.current_version t.ctx handle.Dpapi.pnode)
  | _ -> t.lower.pass_write handle ~off ~data bundle'

let pass_freeze t (handle : Dpapi.handle) =
  let new_version, fe = do_freeze t handle in
  match t.lower.pass_write handle ~off:0 ~data:None [ fe ] with
  | Ok _ -> Ok new_version
  | Error _ as e -> e

let endpoint t : Dpapi.endpoint =
  {
    pass_read = t.lower.pass_read;
    pass_write = (fun h ~off ~data b -> pass_write t h ~off ~data b);
    pass_freeze = (fun h -> pass_freeze t h);
    pass_mkobj = t.lower.pass_mkobj;
    pass_reviveobj = t.lower.pass_reviveobj;
    pass_sync = t.lower.pass_sync;
  }
