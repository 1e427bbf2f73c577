(* Observer tests (paper §5.3): translation of each intercepted system
   call into provenance records, and the disclosure entry point that
   augments application pass_writes with the implicit process
   dependency. *)

open Pass_core

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

(* observer over analyzer over sink, the real stacking order *)
let setup () =
  let ctx = Ctx.create ~machine:1 in
  let s = Helpers.sink ctx in
  let an = Analyzer.create ~ctx ~lower:(Helpers.sink_endpoint s) () in
  let obs = Observer.create ~ctx ~lower:(Analyzer.endpoint an) () in
  (ctx, s, obs)

let records_of s attr =
  List.filter (fun (_, (r : Record.t)) -> String.equal r.attr attr) (Helpers.all_records s)

let test_fork_creates_lineage () =
  let _ctx, s, obs = setup () in
  Helpers.ok (Observer.fork obs ~parent:1 ~child:2);
  Helpers.ok (Observer.fork obs ~parent:2 ~child:3);
  let parent_h = Observer.proc_handle obs 2 in
  (* child 3 depends on process 2 *)
  let has_edge =
    List.exists
      (fun (_, (r : Record.t)) ->
        match Record.xref_of r with
        | Some x -> Pnode.equal x.pnode parent_h.Dpapi.pnode
        | None -> false)
      (Helpers.all_records s)
  in
  check tbool "fork edge recorded" true has_edge;
  check tbool "PID identity recorded" true (List.length (records_of s Record.Attr.pid) >= 2)

let test_execve_records () =
  let ctx, s, obs = setup () in
  let binary = Dpapi.handle ~volume:"v" (Ctx.fresh ctx) in
  Helpers.ok
    (Observer.execve obs ~pid:5 ~path:"/bin/sort" ~argv:[ "sort"; "-u" ]
       ~env:[ "LC_ALL=C" ] ~binary);
  check tint "NAME" 1 (List.length (records_of s Record.Attr.name));
  check tint "ARGV" 1 (List.length (records_of s Record.Attr.argv));
  check tint "ENV" 1 (List.length (records_of s Record.Attr.env));
  let proc = Observer.proc_handle obs 5 in
  let binary_edge =
    List.exists
      (fun ((t : Dpapi.handle), (r : Record.t)) ->
        Pnode.equal t.pnode proc.Dpapi.pnode
        && match Record.xref_of r with
           | Some x -> Pnode.equal x.pnode binary.pnode
           | None -> false)
      (Helpers.all_records s)
  in
  check tbool "process depends on binary" true binary_edge

let test_read_returns_data_and_records_dep () =
  let ctx, s, obs = setup () in
  let f = Dpapi.handle ~volume:"v" (Ctx.fresh ctx) in
  let r = Helpers.ok (Observer.read obs ~pid:7 ~file:f ~off:0 ~len:64) in
  check tbool "identity returned" true (Pnode.equal r.Dpapi.r_pnode f.pnode);
  let proc = Observer.proc_handle obs 7 in
  let dep =
    List.exists
      (fun ((t : Dpapi.handle), (r : Record.t)) ->
        Pnode.equal t.pnode proc.Dpapi.pnode
        && match Record.xref_of r with Some x -> Pnode.equal x.pnode f.pnode | None -> false)
      (Helpers.all_records s)
  in
  check tbool "process -> file dependency" true dep

let test_write_bundles_data_and_record () =
  let ctx, s, obs = setup () in
  let f = Dpapi.handle ~volume:"v" (Ctx.fresh ctx) in
  let _v = Helpers.ok (Observer.write obs ~pid:8 ~file:f ~off:0 ~data:"payload") in
  (* the sink must have seen one write carrying BOTH the data and the
     file<-process record: that is the consistency contract *)
  let coupled =
    List.exists
      (fun (h, _off, data, bundle) ->
        Pnode.equal h.Dpapi.pnode f.pnode
        && data = Some "payload"
        && List.exists
             (fun (e : Dpapi.bundle_entry) ->
               List.exists (fun r -> Record.is_ancestry r) e.records)
             bundle)
      s.writes
  in
  check tbool "data and provenance travel together" true coupled

let test_pipes () =
  let _ctx, s, obs = setup () in
  Helpers.ok (Observer.pipe_create obs ~pid:1 ~pipe_id:10);
  Helpers.ok (Observer.pipe_write obs ~pid:1 ~pipe_id:10);
  Helpers.ok (Observer.pipe_read obs ~pid:2 ~pipe_id:10);
  (* pipe <- p1 and p2 <- pipe *)
  check tbool "pipe typed" true
    (List.exists (fun (_, (r : Record.t)) -> r.value = Pvalue.Str "PIPE") (Helpers.all_records s));
  (match Observer.pipe_write obs ~pid:1 ~pipe_id:99 with
  | Error Dpapi.Ebadf -> ()
  | _ -> Alcotest.fail "unknown pipe must be EBADF")

let test_mmap_writable_is_bidirectional () =
  let ctx, s, obs = setup () in
  let f = Dpapi.handle ~volume:"v" (Ctx.fresh ctx) in
  Helpers.ok (Observer.mmap obs ~pid:3 ~file:f ~writable:true);
  let proc = Observer.proc_handle obs 3 in
  let edge ~src ~dst =
    List.exists
      (fun ((t : Dpapi.handle), (r : Record.t)) ->
        Pnode.equal t.pnode src
        && match Record.xref_of r with Some x -> Pnode.equal x.pnode dst | None -> false)
      (Helpers.all_records s)
  in
  check tbool "proc -> file" true (edge ~src:proc.Dpapi.pnode ~dst:f.pnode);
  check tbool "file -> proc" true (edge ~src:f.pnode ~dst:proc.Dpapi.pnode)

let test_endpoint_for_adds_implicit_record () =
  let ctx, s, obs = setup () in
  let ep = Observer.endpoint_for obs ~pid:4 in
  let f = Dpapi.handle ~volume:"v" (Ctx.fresh ctx) in
  (* application discloses ONLY a semantic record with its data write *)
  let _v =
    Helpers.ok
      (ep.pass_write f ~off:0 ~data:(Some "d")
         [ Dpapi.entry f [ Record.make "FILE_URL" (Pvalue.Str "http://x/") ] ])
  in
  let proc = Observer.proc_handle obs 4 in
  let implicit =
    List.exists
      (fun ((t : Dpapi.handle), (r : Record.t)) ->
        Pnode.equal t.pnode f.pnode
        && match Record.xref_of r with
           | Some x -> Pnode.equal x.pnode proc.Dpapi.pnode
           | None -> false)
      (Helpers.all_records s)
  in
  check tbool "implicit process record added to disclosed write" true implicit;
  check tbool "disclosed record kept" true
    (List.exists (fun (_, (r : Record.t)) -> r.attr = "FILE_URL") (Helpers.all_records s))

let test_event_counting () =
  let ctx = Ctx.create ~machine:1 in
  let s = Helpers.sink ctx in
  let registry = Telemetry.create () in
  let obs = Observer.create ~registry ~ctx ~lower:(Helpers.sink_endpoint s) () in
  let f = Dpapi.handle ~volume:"v" (Ctx.fresh ctx) in
  Helpers.ok (Observer.fork obs ~parent:1 ~child:2);
  ignore
    (Helpers.ok (Observer.read obs ~pid:2 ~file:f ~off:0 ~len:1) : Dpapi.read_result);
  Helpers.ok (Observer.exit obs ~pid:2);
  check tint "events counted" 3 (Helpers.counter registry "observer.events")

let suite =
  [
    Alcotest.test_case "fork creates lineage" `Quick test_fork_creates_lineage;
    Alcotest.test_case "execve records name/argv/env/binary" `Quick test_execve_records;
    Alcotest.test_case "read returns identity and records dep" `Quick
      test_read_returns_data_and_records_dep;
    Alcotest.test_case "write couples data with provenance" `Quick
      test_write_bundles_data_and_record;
    Alcotest.test_case "pipes" `Quick test_pipes;
    Alcotest.test_case "writable mmap is bidirectional" `Quick
      test_mmap_writable_is_bidirectional;
    Alcotest.test_case "disclosure adds implicit process record" `Quick
      test_endpoint_for_adds_implicit_record;
    Alcotest.test_case "event counting" `Quick test_event_counting;
  ]
