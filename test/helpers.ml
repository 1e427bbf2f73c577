(* Shared test helpers: a capturing DPAPI sink endpoint and small utilities. *)

open Pass_core

type sink = {
  mutable writes : (Dpapi.handle * int * string option * Dpapi.bundle) list;
  mutable freezes : Dpapi.handle list;
  mutable synced : Dpapi.handle list;
  ctx : Ctx.t;
}

(* A bottom endpoint that records everything it is asked to do; versions are
   served from the shared ctx so stacked layers agree. *)
let sink ctx = { writes = []; freezes = []; synced = []; ctx }

let sink_endpoint s : Dpapi.endpoint =
  {
    pass_read =
      (fun h ~off:_ ~len:_ ->
        Ok { Dpapi.data = ""; r_pnode = h.pnode; r_version = Ctx.current_version s.ctx h.pnode });
    pass_write =
      (fun h ~off ~data bundle ->
        s.writes <- (h, off, data, bundle) :: s.writes;
        Ok (Ctx.current_version s.ctx h.pnode));
    pass_freeze =
      (fun h ->
        s.freezes <- h :: s.freezes;
        Ok (Ctx.freeze s.ctx h.pnode));
    pass_mkobj = (fun ~volume -> Ok (Dpapi.handle ?volume (Ctx.fresh s.ctx)));
    pass_reviveobj = (fun p _v -> Ok (Dpapi.handle p));
    pass_sync =
      (fun h ->
        s.synced <- h :: s.synced;
        Ok ());
  }

let all_records s =
  List.concat_map
    (fun (_, _, _, bundle) ->
      List.concat_map (fun (e : Dpapi.bundle_entry) -> List.map (fun r -> (e.target, r)) e.records)
      bundle)
    s.writes

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Dpapi.error_to_string e)

let ok_fs = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected fs error: %s" (Vfs.errno_to_string e)

(* Deterministic pseudo-random payloads for file contents. *)
let payload ~seed ~len =
  let st = ref seed in
  String.init len (fun _ ->
      st := (!st * 1103515245) + 12345;
      Char.chr (abs (!st lsr 16) mod 256))

(* Build a fresh one-disk ext3 instance. *)
let fresh_ext3 () =
  let clock = Simdisk.Clock.create () in
  let disk = Simdisk.Disk.create ~clock () in
  (disk, Ext3.format disk)

(* PQL conveniences over the prepared-query engine: one-shot execution
   and the names projection most assertions want. *)
let pql_rows db q = Pql.Engine.execute (Pql.Engine.prepare db q)
let pql_names db q = Pql.names_of_rows db (pql_rows db q)

(* The aggregated value of a counter in [registry]; 0 when it is absent. *)
let counter registry name = Option.value (Telemetry.counter_value registry name) ~default:0

(* Whether pvcheck's acyclicity pass, a DFS over the stored graph
   cross-checked against the Cycle_detect oracle, finds no cycle in [db]
   (archived history included). *)
let acyclic db =
  not
    (List.exists
       (fun (f : Pvcheck.finding) -> String.equal f.f_pass "acyclicity")
       (Pvcheck.check_db db).r_findings)
