(* PA-links tests (paper §6.3 and the §3.2 use cases): the synthetic web,
   session provenance, the three download records, attribution across
   rename/copy, malware source tracking, and session revival. *)

open Pass_core

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let setup () =
  let sys = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] () in
  let pid = Kernel.fork (System.kernel sys) ~parent:Kernel.init_pid in
  let web = Web.synthetic () in
  let browser = Browser.create ~web (Process.v sys ~pid) in
  (sys, pid, web, browser)

(* --- web substrate --------------------------------------------------------- *)

let test_web_fetch_and_links () =
  let web = Web.synthetic () in
  let url = Web.site_url 0 0 in
  let final, chain, resource = Web.fetch web url in
  check tstr "no redirect" url final;
  check tint "no chain" 0 (List.length chain);
  (match resource with
  | Web.Page p -> check tbool "page has links" true (List.length p.links > 0)
  | _ -> Alcotest.fail "expected a page");
  (match Web.fetch web "http://nowhere.example/" with
  | exception Web.Not_found_404 _ -> ()
  | _ -> Alcotest.fail "expected 404");
  check tbool "fetches counted" true (Web.fetch_count web >= 2);
  check tbool "links_of returns the page links" true
    (List.mem (Web.site_url 0 1) (Web.links_of web url))

let test_web_redirects () =
  let web = Web.synthetic () in
  let final, chain, _ = Web.fetch web "http://short.example/s2" in
  check tstr "redirect followed" (Web.site_url 2 0) final;
  check tint "chain recorded" 1 (List.length chain)

let test_web_compromise () =
  let web = Web.synthetic () in
  let url = Web.download_url 1 "doc3.pdf" in
  check tbool "initially clean" false (Web.is_tampered web ~url);
  Web.compromise web ~url ~payload:"EVIL";
  check tbool "tampered flagged" true (Web.is_tampered web ~url);
  let _, _, r = Web.fetch web url in
  (match r with
  | Web.Download d -> check tstr "payload served" "EVIL" d.content
  | _ -> Alcotest.fail "expected download")

(* --- browser --------------------------------------------------------------- *)

let drain_db sys =
  ignore (System.drain sys : int);
  Option.get (System.waldo_db sys "vol0")

let test_download_records () =
  let sys, _pid, _web, browser = setup () in
  let s = Browser.new_session browser in
  ignore (Browser.visit browser s (Web.site_url 0 0) : Web.resource);
  ignore (Browser.visit browser s (Web.site_url 0 1) : Web.resource);
  let url = Web.download_url 0 "doc2.pdf" in
  let _final = Browser.download browser s ~url ~dest:"/vol0/downloads/doc2.pdf" in
  let db = drain_db sys in
  (* FILE_URL and CURRENT_URL on the file (Table 1) *)
  let file = List.hd (Provdb.find_by_name db "doc2.pdf") in
  let quads = Provdb.records_all db file in
  let has attr v =
    List.exists
      (fun (q : Record.t) -> q.attr = attr && q.value = Pvalue.Str v)
      quads
  in
  check tbool "FILE_URL recorded" true (has Record.Attr.file_url url);
  check tbool "CURRENT_URL recorded" true (has Record.Attr.current_url (Web.site_url 0 1));
  (* the session, with its VISITED_URL trail, is an ancestor *)
  let names =
    Helpers.pql_names db
      {|select A from Provenance.file as F F.input* as A where F.name = "doc2.pdf"|}
  in
  check tbool "session in ancestry" true (List.mem "session-1" names);
  let session = List.hd (Provdb.find_by_name db "session-1") in
  let visits =
    List.filter
      (fun (q : Record.t) -> q.attr = Record.Attr.visited_url)
      (Provdb.records_all db session)
  in
  check tint "two visits recorded" 2 (List.length visits)

let test_attribution_survives_rename () =
  (* §3.2 use case: the professor copies/renames the file; a plain browser
     loses the link, PASS keeps it *)
  let sys, pid, _web, browser = setup () in
  let s = Browser.new_session browser in
  ignore (Browser.visit browser s (Web.site_url 1 0) : Web.resource);
  let url = Web.download_url 1 "doc0.pdf" in
  ignore (Browser.download browser s ~url ~dest:"/vol0/downloads/graph.pdf" : string);
  (* move it into the presentation directory *)
  Helpers.ok_fs (Kernel.mkdir_p (System.kernel sys) ~path:"/vol0/talk");
  Helpers.ok_fs
    (Kernel.rename (System.kernel sys) ~pid ~src:"/vol0/downloads/graph.pdf"
       ~dst:"/vol0/talk/figure1.pdf");
  let db = drain_db sys in
  (* query by pnode of the renamed file: its FILE_URL is still there *)
  let file = List.hd (Provdb.find_by_name db "graph.pdf") in
  let quads = Provdb.records_all db file in
  check tbool "URL attribution survives rename" true
    (List.exists
       (fun (q : Record.t) -> q.attr = Record.Attr.file_url && q.value = Pvalue.Str url)
       quads)

let test_malware_scenario () =
  (* §3.2: Eve compromises a codec; Alice downloads it; the codec infects
     other files.  The layered provenance identifies the web site AND the
     spread. *)
  let sys, _pid, web, browser = setup () in
  let codec_url = Web.download_url 2 "doc1.pdf" in
  Web.compromise web ~url:codec_url ~payload:"codec-with-malware";
  let s = Browser.new_session browser in
  ignore (Browser.visit browser s (Web.site_url 2 0) : Web.resource);
  ignore (Browser.download browser s ~url:codec_url ~dest:"/vol0/bin/codec" : string);
  (* Alice runs the codec; it corrupts files *)
  let k = System.kernel sys in
  let mal = Kernel.fork k ~parent:Kernel.init_pid in
  Helpers.ok_fs (Kernel.execve k ~pid:mal ~path:"/vol0/bin/codec" ~argv:[ "codec" ] ~env:[]);
  let io = Kepler_run.io (Process.v sys ~pid:mal) in
  io.Actor.write_file "/vol0/home/infected1" "bad";
  io.Actor.write_file "/vol0/home/infected2" "bad";
  let db = drain_db sys in
  (* backward: where did the codec come from? *)
  let file = List.hd (Provdb.find_by_name db "codec") in
  let quads = Provdb.records_all db file in
  check tbool "malware source URL identified" true
    (List.exists
       (fun (q : Record.t) ->
         q.attr = Record.Attr.file_url && q.value = Pvalue.Str codec_url)
       quads);
  (* forward: what descends from the codec? *)
  let descendants =
    Helpers.pql_names db
      {|select D from Provenance.file as C C.^input* as D where C.name = "codec"|}
  in
  check tbool "spread tracked to infected1" true (List.mem "infected1" descendants);
  check tbool "spread tracked to infected2" true (List.mem "infected2" descendants)

let test_plain_browser_loses_provenance () =
  let sys = System.create ~mode:System.Vanilla ~machine:1 ~volume_names:[ "vol0" ] () in
  let pid = Kernel.fork (System.kernel sys) ~parent:Kernel.init_pid in
  let web = Web.synthetic () in
  let browser = Browser.create ~web (Process.v sys ~pid) in
  check tbool "not provenance-aware on vanilla kernel" false (Browser.provenance_aware browser);
  let s = Browser.new_session browser in
  ignore (Browser.visit browser s (Web.site_url 0 0) : Web.resource);
  ignore
    (Browser.download browser s ~url:(Web.download_url 0 "doc0.pdf") ~dest:"/vol0/d.pdf"
      : string);
  (* the data arrives, but nothing remembers where from *)
  let io = Kepler_run.io (Process.v sys ~pid) in
  check tbool "data written" true (String.length (io.Actor.read_file "/vol0/d.pdf") > 0)

(* A state file past 1 MB is read whole: 100 000 lines of 11 bytes, so
   a reader that stopped at 1 000 000 bytes would end mid-line and find
   a corrupt session.  On a vanilla kernel there is nothing to revive. *)
let test_restore_large_session_file () =
  let sys = System.create ~mode:System.Vanilla ~machine:1 ~volume_names:[ "vol0" ] () in
  let proc = Process.spawn sys ~parent:Kernel.init_pid () in
  let state = String.concat "" (List.init 100_000 (fun _ -> "123456 7 8\n")) in
  Process.write_file proc "/vol0/.browser-state" state;
  let browser = Browser.create ~web:(Web.synthetic ()) proc in
  Browser.restore_sessions browser ~path:"/vol0/.browser-state";
  check tbool "nothing revived on a vanilla kernel" true (browser.Browser.sessions = [])

let test_session_revival () =
  (* the Firefox lesson (§6.5): save sessions, restart, revive, and keep
     recording onto the same session object *)
  let sys, pid, web, browser = setup () in
  let s = Browser.new_session browser in
  ignore (Browser.visit browser s (Web.site_url 0 0) : Web.resource);
  Browser.save_sessions browser ~path:"/vol0/.browser-state";
  (* "restart": a new browser instance on the same machine *)
  let browser2 = Browser.create ~web (Process.v sys ~pid) in
  Browser.restore_sessions browser2 ~path:"/vol0/.browser-state";
  (match browser2.Browser.sessions with
  | [ revived ] ->
      check tbool "same pnode revived" true
        (Pnode.equal revived.Browser.handle.Dpapi.pnode s.Browser.handle.Dpapi.pnode);
      (* continue the session: download lands on the revived object *)
      ignore (Browser.visit browser2 revived (Web.site_url 0 2) : Web.resource);
      ignore
        (Browser.download browser2 revived ~url:(Web.download_url 0 "doc1.pdf")
           ~dest:"/vol0/later.pdf"
          : string);
      let db = drain_db sys in
      let names =
        Helpers.pql_names db
          {|select A from Provenance.file as F F.input* as A where F.name = "later.pdf"|}
      in
      check tbool "revived session in ancestry" true (List.mem "session-1" names)
  | _ -> Alcotest.fail "expected exactly one revived session")

let suite =
  [
    Alcotest.test_case "web: fetch pages and links" `Quick test_web_fetch_and_links;
    Alcotest.test_case "web: redirects" `Quick test_web_redirects;
    Alcotest.test_case "web: compromise a download" `Quick test_web_compromise;
    Alcotest.test_case "download emits the three records" `Quick test_download_records;
    Alcotest.test_case "attribution survives rename (§3.2)" `Quick
      test_attribution_survives_rename;
    Alcotest.test_case "malware source + spread (§3.2)" `Quick test_malware_scenario;
    Alcotest.test_case "a session file over 1 MB restores" `Quick
      test_restore_large_session_file;
    Alcotest.test_case "plain browser loses provenance" `Quick
      test_plain_browser_loses_provenance;
    Alcotest.test_case "session save/revive (§6.5 lesson)" `Quick test_session_revival;
  ]
