(* The distributor (paper §5.5).

   Processes, pipes, and application objects created via pass_mkobj are
   first-class provenance objects but are not persistent file-system
   objects, so their provenance has no obvious home.  The distributor
   caches provenance records for all such objects.  When one of them
   becomes part of the ancestry of a persistent object on a PASS volume —
   or is explicitly flushed via pass_sync — the distributor assigns it to a
   volume (the persistent ancestor's, or the one specified at creation) and
   flushes the cached records with a pass_write to storage.  Purely
   transient objects with no persistent descendants are never flushed,
   which is the correct behaviour (e.g. a process that touched nothing). *)

type ventry = {
  mutable records : Record.t list; (* newest first *)
  mutable hint : string option; (* volume requested at pass_mkobj time *)
  mutable assigned : string option; (* volume once anchored/flushed *)
}

type instruments = {
  cached_records : Telemetry.counter;
  flushes : Telemetry.counter;
  flushed_records : Telemetry.counter;
}

type t = {
  ctx : Ctx.t;
  lower : Dpapi.endpoint;
  default_volume : string;
  cache : (Pnode.t, ventry) Hashtbl.t;
  tracer : Pvtrace.t;
  i : instruments;
}

let create ?registry ?(tracer = Pvtrace.disabled) ~ctx ~lower ~default_volume () =
  {
    ctx;
    lower;
    default_volume;
    cache = Hashtbl.create 256;
    tracer;
    i =
      {
        cached_records = Telemetry.counter ?registry "distributor.cached_records";
        flushes = Telemetry.counter ?registry "distributor.flushes";
        flushed_records = Telemetry.counter ?registry "distributor.flushed_records";
      };
  }

let cached_object_count t = Hashtbl.length t.cache

let is_cached_unflushed t pnode =
  match Hashtbl.find_opt t.cache pnode with
  | Some v -> v.assigned = None
  | None -> false

let ( let* ) = Result.bind

(* Flush [pnode]'s cached provenance to [volume], then recursively flush any
   still-cached objects its records reference: once an object is persistent,
   its whole transitive virtual ancestry must be too, or queries would dead
   end. *)
let rec flush t pnode volume =
  match Hashtbl.find_opt t.cache pnode with
  | None -> Ok ()
  | Some v when v.assigned <> None -> Ok ()
  | Some v ->
      let volume = Option.value v.hint ~default:volume in
      v.assigned <- Some volume;
      let records = List.rev v.records in
      v.records <- [];
      Telemetry.incr t.i.flushes;
      Telemetry.add t.i.flushed_records (List.length records);
      Pvtrace.span t.tracer ~layer:"distributor" ~op:"flush"
        ~pnode:(Pnode.to_int pnode)
      @@ fun () ->
      Pvtrace.set_outcome t.tracer "flushed";
      let handle = Dpapi.handle ~volume pnode in
      let* _version =
        t.lower.pass_write handle ~off:0 ~data:None [ Dpapi.entry handle records ]
      in
      flush_ancestors_of t records volume

and flush_ancestors_of t records volume =
  List.fold_left
    (fun acc r ->
      let* () = acc in
      match Record.xref_of r with
      | Some { pnode; _ } when is_cached_unflushed t pnode -> flush t pnode volume
      | Some _ | None -> Ok ())
    (Ok ()) records

(* Route one bundle entry.  Entries for persistent targets are forwarded
   (after anchoring any virtual ancestors they reference); entries for
   cached virtual objects are absorbed into the cache. *)
let route_entry t volume_of_write (e : Dpapi.bundle_entry) =
  let pnode = e.target.Dpapi.pnode in
  match (e.target.volume, Hashtbl.find_opt t.cache pnode) with
  | None, Some v when v.assigned = None ->
      (* still virtual: cache, and remember references among virtuals *)
      v.records <- List.rev_append e.records v.records;
      Telemetry.add t.i.cached_records (List.length e.records);
      Pvtrace.event t.tracer ~layer:"distributor" ~op:"absorb"
        ~pnode:(Pnode.to_int pnode) ~outcome:"cached" ();
      Ok None
  | None, Some v ->
      (* previously anchored: forward to its assigned volume *)
      let volume = Option.get v.assigned in
      let target = { e.Dpapi.target with volume = Some volume } in
      let* () = flush_ancestors_of t e.records volume in
      Ok (Some { e with Dpapi.target })
  | None, None ->
      (* unknown virtual object (e.g. revived after restart): treat as a
         fresh cache entry *)
      let v = { records = List.rev e.records; hint = None; assigned = None } in
      Hashtbl.replace t.cache pnode v;
      Telemetry.add t.i.cached_records (List.length e.records);
      Pvtrace.event t.tracer ~layer:"distributor" ~op:"absorb"
        ~pnode:(Pnode.to_int pnode) ~outcome:"cached" ();
      Ok None
  | Some volume, _ ->
      let* () = flush_ancestors_of t e.records (Option.value volume_of_write ~default:volume) in
      Ok (Some e)

let pass_write t (handle : Dpapi.handle) ~off ~data bundle =
  let volume_of_write = handle.volume in
  let rec route acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest -> (
        match route_entry t volume_of_write e with
        | Ok None -> route acc rest
        | Ok (Some e') -> route (e' :: acc) rest
        | Error _ as err -> err)
  in
  let* bundle' = route [] bundle in
  match (handle.volume, data) with
  | None, _ ->
      (* The write target itself is virtual: data aimed at it has no
         backing store, but entries that routed to persistent or anchored
         objects must still reach their volumes — one pass_write per
         volume, with that volume's first entry as the carrying handle. *)
      let by_volume = Hashtbl.create 4 in
      List.iter
        (fun (e : Dpapi.bundle_entry) ->
          let vol = Option.value e.target.volume ~default:t.default_volume in
          match Hashtbl.find_opt by_volume vol with
          | Some l -> l := e :: !l
          | None -> Hashtbl.add by_volume vol (ref [ e ]))
        bundle';
      let* () =
        Hashtbl.fold
          (fun _vol entries acc ->
            let* () = acc in
            match List.rev !entries with
            | [] -> Ok ()
            | (first : Dpapi.bundle_entry) :: _ as group ->
                let* _v = t.lower.pass_write first.target ~off:0 ~data:None group in
                Ok ())
          by_volume (Ok ())
      in
      Ok (Ctx.current_version t.ctx handle.pnode)
  | Some _, None when bundle' = [] -> Ok (Ctx.current_version t.ctx handle.pnode)
  | Some _, _ -> t.lower.pass_write handle ~off ~data bundle'

let pass_mkobj t ~volume =
  let pnode = Ctx.fresh t.ctx in
  Hashtbl.replace t.cache pnode { records = []; hint = volume; assigned = None };
  Ok (Dpapi.handle pnode)

let pass_reviveobj t pnode version =
  if Hashtbl.mem t.cache pnode then
    if version <= Ctx.current_version t.ctx pnode then Ok (Dpapi.handle pnode)
    else Error Dpapi.Estale
  else
    (* possibly persisted earlier: ask storage *)
    t.lower.pass_reviveobj pnode version

let pass_sync t (handle : Dpapi.handle) =
  match handle.volume with
  | Some _ -> t.lower.pass_sync handle
  | None -> (
      match flush t handle.pnode t.default_volume with
      | Ok () -> Ok ()
      | Error _ as e -> e)

let pass_read t (handle : Dpapi.handle) ~off ~len =
  match handle.volume with
  | Some _ -> t.lower.pass_read handle ~off ~len
  | None ->
      (* virtual objects have no data; reading them yields the identity with
         empty data, which lets layers above construct accurate records *)
      Ok
        {
          Dpapi.data = "";
          r_pnode = handle.pnode;
          r_version = Ctx.current_version t.ctx handle.pnode;
        }

let pass_freeze t (handle : Dpapi.handle) =
  match handle.volume with
  | Some _ -> t.lower.pass_freeze handle
  | None -> Ok (Ctx.freeze t.ctx handle.pnode)

let endpoint t : Dpapi.endpoint =
  {
    pass_read = (fun h ~off ~len -> pass_read t h ~off ~len);
    pass_write = (fun h ~off ~data b -> pass_write t h ~off ~data b);
    pass_freeze = (fun h -> pass_freeze t h);
    pass_mkobj = (fun ~volume -> pass_mkobj t ~volume);
    pass_reviveobj = (fun p v -> pass_reviveobj t p v);
    pass_sync = (fun h -> pass_sync t h);
  }
