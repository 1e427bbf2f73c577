(* The PA-links browser use cases (paper §3.2).

     dune exec examples/web_attribution.exe

   Two stories:
   1. Attribution: a professor downloads figures from the web, copies and
      renames them into a talk directory, and months later needs proper
      attribution — the browser history is gone, but PASS kept the file
      and its provenance connected.
   2. Malware: Eve compromises a codec on a web site; Alice downloads and
      runs it; the layered provenance identifies both where it came from
      and everything it touched. *)

module Record = Pass_core.Record
module Pvalue = Pass_core.Pvalue

let pql_names db q = Pql.names_of_rows db Pql.Engine.(execute (prepare db q))

let ok = function Ok v -> v | Error e -> failwith (Vfs.errno_to_string e)

let () =
  print_endline "== §3.2: provenance-aware browsing ==\n";
  let sys = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] () in
  let k = System.kernel sys in
  let web = Web.synthetic ~sites:4 ~pages_per_site:6 () in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  let browser = Browser.create ~web (Process.v sys ~pid) in

  (* ----- story 1: attribution ------------------------------------------- *)
  print_endline "--- story 1: the absent-minded professor ---";
  let s = Browser.new_session browser in
  ignore (Browser.visit browser s (Web.site_url 1 0));
  ignore (Browser.visit browser s (Web.site_url 1 3));
  let graph_url = Web.download_url 1 "doc3.pdf" in
  ignore (Browser.download browser s ~url:graph_url ~dest:"/vol0/downloads/crime-stats.pdf");
  Printf.printf "downloaded %s\n  while viewing %s\n" graph_url (Web.site_url 1 3);
  (* months later: moved and renamed into the talk *)
  ok (Kernel.mkdir_p k ~path:"/vol0/talk");
  ok (Kernel.rename k ~pid ~src:"/vol0/downloads/crime-stats.pdf" ~dst:"/vol0/talk/figure-7.pdf");
  print_endline "renamed to /vol0/talk/figure-7.pdf; browser history long gone";
  ignore (System.drain sys : int);
  let db = Option.get (System.waldo_db sys "vol0") in
  (* ask: where did figure-7.pdf come from?  (name index still holds the
     original name; the pnode — and provenance — survived the rename) *)
  let file = List.hd (Provdb.find_by_name db "crime-stats.pdf") in
  print_endline "\nattribution query on the renamed file:";
  List.iter
    (fun (q : Record.t) ->
      if q.attr = Record.Attr.file_url || q.attr = Record.Attr.current_url then
        Printf.printf "  %-12s %s\n" q.attr
          (match q.value with Pvalue.Str s -> s | _ -> "?"))
    (Provdb.records_all db file);
  let session = List.hd (Provdb.find_by_name db "session-1") in
  print_endline "  pages visited during the downloading session:";
  List.iter
    (fun (q : Record.t) ->
      if q.attr = Record.Attr.visited_url then
        Printf.printf "    %s\n" (match q.value with Pvalue.Str s -> s | _ -> "?"))
    (Provdb.records_all db session);

  (* ----- story 2: malware ------------------------------------------------ *)
  print_endline "\n--- story 2: determining the malware source ---";
  let codec_url = Web.download_url 2 "doc1.pdf" in
  Web.compromise web ~url:codec_url ~payload:"codec-plus-malware";
  Printf.printf "Eve compromises %s\n" codec_url;
  let s2 = Browser.new_session browser in
  ignore (Browser.visit browser s2 "http://short.example/s2") (* redirect! *);
  ignore (Browser.visit browser s2 (Web.site_url 2 1));
  ignore (Browser.download browser s2 ~url:codec_url ~dest:"/vol0/bin/codec");
  print_endline "Alice downloads the codec (via a redirect she never noticed) and runs it";
  let mal = Kernel.fork k ~parent:Kernel.init_pid in
  ok (Kernel.execve k ~pid:mal ~path:"/vol0/bin/codec" ~argv:[ "codec"; "--install" ] ~env:[]);
  let io = Kepler_run.io (Process.v sys ~pid:mal) in
  io.Actor.write_file "/vol0/home/document.txt" "corrupted";
  io.Actor.write_file "/vol0/home/spreadsheet.xls" "corrupted";
  io.Actor.write_file "/vol0/etc/startup.rc" "persistence-hook";
  print_endline "the malware corrupts three files before Alice notices";
  ignore (System.drain sys : int);
  let db = Option.get (System.waldo_db sys "vol0") in

  print_endline "\nbackward query — where did the codec come from?";
  let codec = List.hd (Provdb.find_by_name db "codec") in
  List.iter
    (fun (q : Record.t) ->
      if q.attr = Record.Attr.file_url || q.attr = Record.Attr.current_url then
        Printf.printf "  %-12s %s\n" q.attr
          (match q.value with Pvalue.Str s -> s | _ -> "?"))
    (Provdb.records_all db codec);
  let session2 = List.hd (Provdb.find_by_name db "session-2") in
  print_endline "  browsing session that fetched it (note the redirect chain):";
  List.iter
    (fun (q : Record.t) ->
      if q.attr = Record.Attr.visited_url then
        Printf.printf "    %s\n" (match q.value with Pvalue.Str s -> s | _ -> "?"))
    (Provdb.records_all db session2);

  print_endline "\nforward query — what descends from the codec?";
  let descendants =
    pql_names db {|select D from Provenance.file as C C.^input* as D where C.name = "codec"|}
  in
  List.iter (fun n -> Printf.printf "  %s\n" n) descendants;
  print_endline "\nwithout layering: the browser alone cannot track the spread through the";
  print_endline "file system, and PASS alone cannot name the web site.  Together they can."
