(* Distributor tests (paper §5.5 / DESIGN.md invariant 4): caching of
   virtual-object provenance, anchoring through persistent descendants,
   recursive ancestor flushing, pass_sync, revival, and routing of
   multi-volume bundles. *)

open Pass_core

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

(* a sink that records which (volume, target, records) tuples reach storage *)
let setup () =
  let ctx = Ctx.create ~machine:1 in
  let s = Helpers.sink ctx in
  let registry = Telemetry.create () in
  let d =
    Distributor.create ~registry ~ctx ~lower:(Helpers.sink_endpoint s) ~default_volume:"vol0" ()
  in
  (ctx, s, d, Distributor.endpoint d, registry)

let file ctx volume = Dpapi.handle ~volume (Ctx.fresh ctx)

let test_virtual_records_cached () =
  let _ctx, s, d, ep, reg = setup () in
  let obj = Helpers.ok (ep.pass_mkobj ~volume:None) in
  Helpers.ok (Dpapi.disclose ep obj [ Record.typ "PROCESS" ]);
  check tint "nothing reached storage" 0 (List.length s.writes);
  check tbool "cached instead" true (Distributor.is_cached_unflushed d obj.pnode);
  check tint "cache counts the records" 1 (Helpers.counter reg "distributor.cached_records")

let test_anchoring_flushes () =
  let ctx, s, d, ep, reg = setup () in
  let obj = Helpers.ok (ep.pass_mkobj ~volume:None) in
  Helpers.ok (Dpapi.disclose ep obj [ Record.typ "PROCESS"; Record.name "worker" ]);
  (* a persistent file starts depending on the virtual object *)
  let f = file ctx "vol0" in
  Helpers.ok (Dpapi.disclose ep f [ Record.input (Pvalue.xref obj.pnode 0) ]);
  check tbool "object flushed" false (Distributor.is_cached_unflushed d obj.pnode);
  (* the flushed records landed with the object's handle bound to vol0 *)
  let flushed =
    List.exists
      (fun ((target : Dpapi.handle), (r : Record.t)) ->
        Pnode.equal target.pnode obj.pnode && target.volume = Some "vol0"
        && r.attr = Record.Attr.name)
      (Helpers.all_records s)
  in
  check tbool "cached records written to the anchor volume" true flushed;
  check tint "one flush" 1 (Helpers.counter reg "distributor.flushes")

let test_recursive_ancestor_flush () =
  let ctx, _s, d, ep, _reg = setup () in
  (* pipe <- p1; p2 <- pipe; file <- p2 : anchoring file must flush p2,
     the pipe, and p1, transitively *)
  let p1 = Helpers.ok (ep.pass_mkobj ~volume:None) in
  let pipe = Helpers.ok (ep.pass_mkobj ~volume:None) in
  let p2 = Helpers.ok (ep.pass_mkobj ~volume:None) in
  Helpers.ok (Dpapi.disclose ep pipe [ Record.input (Pvalue.xref p1.pnode 0) ]);
  Helpers.ok (Dpapi.disclose ep p2 [ Record.input (Pvalue.xref pipe.pnode 0) ]);
  let f = file ctx "vol0" in
  Helpers.ok (Dpapi.disclose ep f [ Record.input (Pvalue.xref p2.pnode 0) ]);
  check tbool "p2 flushed" false (Distributor.is_cached_unflushed d p2.pnode);
  check tbool "pipe flushed" false (Distributor.is_cached_unflushed d pipe.pnode);
  check tbool "p1 flushed" false (Distributor.is_cached_unflushed d p1.pnode)

let test_sync_uses_hint_then_default () =
  let _ctx, s, _d, ep, _reg = setup () in
  let hinted = Helpers.ok (ep.pass_mkobj ~volume:(Some "volX")) in
  let plain = Helpers.ok (ep.pass_mkobj ~volume:None) in
  Helpers.ok (Dpapi.disclose ep hinted [ Record.name "hinted" ]);
  Helpers.ok (Dpapi.disclose ep plain [ Record.name "plain" ]);
  Helpers.ok (ep.pass_sync hinted);
  Helpers.ok (ep.pass_sync plain);
  let volume_of pnode =
    List.find_map
      (fun ((target : Dpapi.handle), (_ : Record.t)) ->
        if Pnode.equal target.pnode pnode then target.volume else None)
      (Helpers.all_records s)
  in
  check (Alcotest.option Alcotest.string) "hint respected" (Some "volX") (volume_of hinted.pnode);
  check (Alcotest.option Alcotest.string) "default volume used" (Some "vol0")
    (volume_of plain.pnode)

let test_post_flush_records_forwarded () =
  let ctx, s, _d, ep, _reg = setup () in
  let obj = Helpers.ok (ep.pass_mkobj ~volume:None) in
  Helpers.ok (ep.pass_sync obj);
  (* records after the flush go straight to the assigned volume *)
  let before = List.length (Helpers.all_records s) in
  Helpers.ok (Dpapi.disclose ep obj [ Record.name "late-arrival" ]);
  check tbool "late record forwarded" true (List.length (Helpers.all_records s) > before);
  ignore (ctx : Ctx.t)

let test_revive_cached_object () =
  let _ctx, _s, _d, ep, _reg = setup () in
  let obj = Helpers.ok (ep.pass_mkobj ~volume:None) in
  let again = Helpers.ok (ep.pass_reviveobj obj.pnode 0) in
  check tbool "same pnode" true (Pnode.equal obj.pnode again.pnode);
  (match ep.pass_reviveobj obj.pnode 99 with
  | Error Dpapi.Estale -> ()
  | _ -> Alcotest.fail "future version must be stale")

let test_virtual_read_returns_identity () =
  let ctx, _s, _d, ep, _reg = setup () in
  let obj = Helpers.ok (ep.pass_mkobj ~volume:None) in
  ignore (Helpers.ok (ep.pass_freeze obj) : int);
  let r = Helpers.ok (ep.pass_read obj ~off:0 ~len:100) in
  check tint "virtual read: empty data" 0 (String.length r.Dpapi.data);
  check tint "virtual read: current version" (Ctx.current_version ctx obj.pnode)
    r.Dpapi.r_version

let test_mixed_bundle_routing () =
  (* a bundle touching two persistent volumes and a virtual object at
     once: each entry must land on its own volume *)
  let ctx, s, _d, ep, _reg = setup () in
  let fa = file ctx "volA" and fb = file ctx "volB" in
  let obj = Helpers.ok (ep.pass_mkobj ~volume:None) in
  let bundle =
    [
      Dpapi.entry fa [ Record.name "on-a" ];
      Dpapi.entry fb [ Record.name "on-b" ];
      Dpapi.entry obj [ Record.name "virtual" ];
    ]
  in
  let _v = Helpers.ok (ep.pass_write fa ~off:0 ~data:(Some "payload") bundle) in
  let landed name =
    List.find_map
      (fun ((target : Dpapi.handle), (r : Record.t)) ->
        if r.value = Pvalue.Str name then Some target.volume else None)
      (Helpers.all_records s)
  in
  check (Alcotest.option (Alcotest.option Alcotest.string)) "entry a on volA"
    (Some (Some "volA")) (landed "on-a");
  check (Alcotest.option (Alcotest.option Alcotest.string)) "entry b on volB"
    (Some (Some "volB")) (landed "on-b");
  check (Alcotest.option (Alcotest.option Alcotest.string)) "virtual entry cached"
    None (landed "virtual")

let suite =
  [
    Alcotest.test_case "virtual records are cached" `Quick test_virtual_records_cached;
    Alcotest.test_case "anchoring flushes the cache" `Quick test_anchoring_flushes;
    Alcotest.test_case "ancestors flush recursively" `Quick test_recursive_ancestor_flush;
    Alcotest.test_case "sync: volume hint then default" `Quick test_sync_uses_hint_then_default;
    Alcotest.test_case "post-flush records forwarded" `Quick test_post_flush_records_forwarded;
    Alcotest.test_case "revive cached object" `Quick test_revive_cached_object;
    Alcotest.test_case "virtual read returns identity" `Quick test_virtual_read_returns_identity;
    Alcotest.test_case "mixed bundle routes per volume" `Quick test_mixed_bundle_routing;
  ]
