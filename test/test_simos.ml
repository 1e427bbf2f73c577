(* End-to-end tests of the simulated OS with the full PASSv2 stack: system
   calls generate provenance, the WAP logs drain into Waldo, and PQL
   queries over the database answer ancestry questions. *)

open Pass_core

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

let ok = Helpers.ok_fs

(* A process writes a file in 4 KB chunks. *)
let write_file sys ~pid ~path ~data =
  let fd = ok (Kernel.open_file (System.kernel sys) ~pid ~path ~create:true) in
  let len = String.length data in
  let pos = ref 0 in
  while !pos < len do
    let n = min 4096 (len - !pos) in
    ok (Kernel.write (System.kernel sys) ~pid ~fd ~data:(String.sub data !pos n));
    pos := !pos + n
  done;
  ok (Kernel.close (System.kernel sys) ~pid ~fd)

let read_file sys ~pid ~path =
  let fd = ok (Kernel.open_file (System.kernel sys) ~pid ~path ~create:false) in
  let buf = Buffer.create 4096 in
  let rec loop () =
    let chunk = ok (Kernel.read (System.kernel sys) ~pid ~fd ~len:4096) in
    if chunk <> "" then begin
      Buffer.add_string buf chunk;
      loop ()
    end
  in
  loop ();
  ok (Kernel.close (System.kernel sys) ~pid ~fd);
  Buffer.contents buf

let pass_system () = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] ()

let test_vanilla_has_no_pass () =
  let sys = System.create ~mode:System.Vanilla ~machine:1 ~volume_names:[ "vol0" ] () in
  check tbool "no pass stack" true (Kernel.pass_stack (System.kernel sys) = None);
  let pid = Kernel.fork (System.kernel sys) ~parent:Kernel.init_pid in
  write_file sys ~pid ~path:"/vol0/f" ~data:"hello";
  check tbool "data readable" true (String.equal "hello" (read_file sys ~pid ~path:"/vol0/f"))

let test_process_file_ancestry () =
  let sys = pass_system () in
  let k = System.kernel sys in
  (* writer process creates the input *)
  let writer = Kernel.fork k ~parent:Kernel.init_pid in
  write_file sys ~pid:writer ~path:"/vol0/input.dat" ~data:(Helpers.payload ~seed:1 ~len:8192);
  ok (Kernel.exit k ~pid:writer);
  (* transformer reads input, writes output *)
  let worker = Kernel.fork k ~parent:Kernel.init_pid in
  let input = read_file sys ~pid:worker ~path:"/vol0/input.dat" in
  write_file sys ~pid:worker ~path:"/vol0/output.dat" ~data:(String.uppercase_ascii input);
  ok (Kernel.exit k ~pid:worker);
  ignore (System.drain sys : int);
  let db = Option.get (System.waldo_db sys "vol0") in
  check tbool "db is acyclic" true (Provdb.is_acyclic db);
  (* output.dat's ancestry must include input.dat through the worker *)
  let names =
    Helpers.pql_names db
      {|select A from Provenance.file as Out Out.input* as A where Out.name = "output.dat"|}
  in
  check tbool "ancestry includes input.dat" true (List.mem "input.dat" names)

let test_dedup_collapses_chunked_io () =
  let sys = pass_system () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  (* write 64 KB in 4 KB chunks: 16 write syscalls, one record needed *)
  write_file sys ~pid ~path:"/vol0/big" ~data:(Helpers.payload ~seed:2 ~len:65536);
  check tbool "duplicates were dropped" true
    (Helpers.counter (System.telemetry sys) "analyzer.duplicates_dropped" >= 14)

let test_execve_records_argv () =
  let sys = pass_system () in
  let k = System.kernel sys in
  (* install a binary, then exec it *)
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  write_file sys ~pid ~path:"/vol0/bin/cc" ~data:"#binary";
  let cc = Kernel.fork k ~parent:pid in
  ok (Kernel.execve k ~pid:cc ~path:"/vol0/bin/cc" ~argv:[ "cc"; "-O2"; "main.c" ]
        ~env:[ "PATH=/bin" ]);
  write_file sys ~pid:cc ~path:"/vol0/main.o" ~data:"obj";
  ignore (System.drain sys : int);
  let db = Option.get (System.waldo_db sys "vol0") in
  (* main.o descends from the cc binary (via the process) *)
  let names =
    Helpers.pql_names db
      {|select A from Provenance.file as O O.input* as A where O.name = "main.o"|}
  in
  check tbool "binary in ancestry" true (List.mem "cc" names);
  (* and the process carries its argv *)
  let rows =
    Helpers.pql_rows db
      {|select P.argv from Provenance.process as P where P.name = "/vol0/bin/cc"|}
  in
  check tint "argv recorded" 1 (List.length rows)

let test_pipeline_provenance () =
  let sys = pass_system () in
  let k = System.kernel sys in
  (* p1 reads src, writes into a pipe; p2 reads the pipe, writes dst *)
  let setup = Kernel.fork k ~parent:Kernel.init_pid in
  write_file sys ~pid:setup ~path:"/vol0/src" ~data:"pipeline-data";
  let p1 = Kernel.fork k ~parent:Kernel.init_pid in
  let p2 = Kernel.fork k ~parent:Kernel.init_pid in
  let pipe_id = Kernel.pipe k ~pid:p1 in
  let data = read_file sys ~pid:p1 ~path:"/vol0/src" in
  ok (Kernel.pipe_write k ~pid:p1 ~pipe_id ~data);
  let received = ok (Kernel.pipe_read k ~pid:p2 ~pipe_id) in
  write_file sys ~pid:p2 ~path:"/vol0/dst" ~data:received;
  ignore (System.drain sys : int);
  let db = Option.get (System.waldo_db sys "vol0") in
  (* dst <- p2 <- pipe <- p1 <- src *)
  let names =
    Helpers.pql_names db
      {|select A from Provenance.file as D D.input* as A where D.name = "dst"|}
  in
  check tbool "pipeline traced back to src" true (List.mem "src" names)

let test_fork_lineage () =
  let sys = pass_system () in
  let k = System.kernel sys in
  let parent = Kernel.fork k ~parent:Kernel.init_pid in
  let child = Kernel.fork k ~parent in
  write_file sys ~pid:child ~path:"/vol0/out" ~data:"x";
  ignore (System.drain sys : int);
  let db = Option.get (System.waldo_db sys "vol0") in
  (* out <- child <- parent: at least two process nodes in ancestry *)
  let rows =
    Helpers.pql_rows db
      {|select count(A) from Provenance.file as O O.input+ as A where O.name = "out"|}
  in
  (match rows with
  | [ [ Pql_eval.Value (Pvalue.Int n) ] ] -> check tbool "at least 3 ancestors" true (n >= 3)
  | _ -> Alcotest.fail "count row expected")

let test_transient_process_not_persisted () =
  (* DESIGN.md invariant 4: a process that writes nothing persistent never
     reaches the database *)
  let sys = pass_system () in
  let k = System.kernel sys in
  let idle = Kernel.fork k ~parent:Kernel.init_pid in
  ok (Kernel.exit k ~pid:idle);
  let busy = Kernel.fork k ~parent:Kernel.init_pid in
  write_file sys ~pid:busy ~path:"/vol0/file" ~data:"y";
  ignore (System.drain sys : int);
  let db = Option.get (System.waldo_db sys "vol0") in
  (* count process nodes: init-ancestors of busy are anchored; idle is not *)
  let procs =
    List.filter (fun (n : Provdb.node) -> Pql_eval.is_process db n.pnode) (Provdb.all_nodes db)
  in
  (* busy (+ possibly its ancestors via fork edges) but not idle: idle has
     the same parent, so the parent may appear; assert by counting that not
     every forked process is present *)
  check tbool "some processes persisted" true (List.length procs >= 1);
  let stack = Option.get (Kernel.pass_stack k) in
  let idle_handle = Pass_core.Observer.proc_handle stack.Kernel.observer idle in
  check tbool "idle process still cached, not flushed" true
    (Pass_core.Distributor.is_cached_unflushed stack.Kernel.distributor idle_handle.pnode)

let test_unlink_and_metadata_ops () =
  let sys = pass_system () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  write_file sys ~pid ~path:"/vol0/tmp.1" ~data:"temp";
  ok (Kernel.rename k ~pid ~src:"/vol0/tmp.1" ~dst:"/vol0/final");
  check tbool "renamed data" true (String.equal "temp" (read_file sys ~pid ~path:"/vol0/final"));
  write_file sys ~pid ~path:"/vol0/doomed" ~data:"d";
  ok (Kernel.unlink k ~pid ~path:"/vol0/doomed");
  (match Kernel.open_file k ~pid ~path:"/vol0/doomed" ~create:false with
  | Error Vfs.ENOENT -> ()
  | _ -> Alcotest.fail "unlink did not remove");
  check tbool "clock advanced" true (System.elapsed_seconds sys > 0.)

let test_provenance_outlives_deletion () =
  (* the provenance of a deleted file remains queryable: unlink removes
     the data, never the history (the pnode is never recycled) *)
  let sys = pass_system () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  write_file sys ~pid ~path:"/vol0/secret-input" ~data:"ephemeral";
  let data = read_file sys ~pid ~path:"/vol0/secret-input" in
  write_file sys ~pid ~path:"/vol0/derived" ~data:(data ^ "+");
  ok (Kernel.unlink k ~pid ~path:"/vol0/secret-input");
  (match Kernel.open_file k ~pid ~path:"/vol0/secret-input" ~create:false with
  | Error Vfs.ENOENT -> ()
  | _ -> Alcotest.fail "file should be gone");
  ignore (System.drain sys : int);
  let db = Option.get (System.waldo_db sys "vol0") in
  let names =
    Helpers.pql_names db
      {|select A from Provenance.file as D D.input* as A where D.name = "derived"|}
  in
  check tbool "deleted ancestor still in provenance" true (List.mem "secret-input" names)

let test_pass_slower_than_vanilla () =
  (* the whole point of Table 2: PASS costs time, but not absurdly much *)
  let run mode =
    let sys = System.create ~mode ~machine:1 ~volume_names:[ "vol0" ] () in
    let k = System.kernel sys in
    let pid = Kernel.fork k ~parent:Kernel.init_pid in
    for i = 0 to 30 do
      write_file sys ~pid
        ~path:(Printf.sprintf "/vol0/d%d/f%d" (i mod 4) i)
        ~data:(Helpers.payload ~seed:i ~len:12_000);
      ignore (read_file sys ~pid ~path:(Printf.sprintf "/vol0/d%d/f%d" (i mod 4) i) : string)
    done;
    System.elapsed_seconds sys
  in
  let vanilla = run System.Vanilla and pass = run System.Pass in
  check tbool "pass is slower" true (pass > vanilla);
  check tbool "overhead bounded on a pure-metadata microbenchmark" true
    (pass /. vanilla < 4.0)

let test_app_disclosure_via_libpass () =
  let sys = pass_system () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  write_file sys ~pid ~path:"/vol0/report.txt" ~data:"report";
  let ep = Option.get (System.app_endpoint sys ~pid) in
  let lp = Libpass.connect ~endpoint:ep ~pid in
  (* the application creates a semantic object (a "data set") and links the
     file to it *)
  let dataset = Libpass.mkobj ~typ:"DATASET" ~name:"experiment-42" lp in
  let file_h = ok (Kernel.handle_of_path k "/vol0/report.txt") in
  Libpass.disclose lp file_h
    [ Record.input (Pvalue.xref dataset.Dpapi.pnode 0) ];
  Libpass.sync lp dataset;
  ignore (System.drain sys : int);
  let db = Option.get (System.waldo_db sys "vol0") in
  let names =
    Helpers.pql_names db
      {|select A from Provenance.file as F F.input* as A where F.name = "report.txt"|}
  in
  check tbool "semantic object in ancestry" true (List.mem "experiment-42" names)

let suite =
  [
    Alcotest.test_case "vanilla mode has no provenance stack" `Quick test_vanilla_has_no_pass;
    Alcotest.test_case "read->write ancestry end-to-end" `Quick test_process_file_ancestry;
    Alcotest.test_case "chunked I/O dedups" `Quick test_dedup_collapses_chunked_io;
    Alcotest.test_case "execve records binary/argv/env" `Quick test_execve_records_argv;
    Alcotest.test_case "shell pipeline provenance" `Quick test_pipeline_provenance;
    Alcotest.test_case "fork lineage" `Quick test_fork_lineage;
    Alcotest.test_case "transient process not persisted" `Quick
      test_transient_process_not_persisted;
    Alcotest.test_case "rename/unlink metadata ops" `Quick test_unlink_and_metadata_ops;
    Alcotest.test_case "provenance outlives deletion" `Quick
      test_provenance_outlives_deletion;
    Alcotest.test_case "PASS overhead bounded vs vanilla" `Quick test_pass_slower_than_vanilla;
    Alcotest.test_case "application disclosure via libpass" `Quick
      test_app_disclosure_via_libpass;
  ]
