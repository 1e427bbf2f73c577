(* PA-links: the provenance-aware text browser (paper §6.3).

   Provenance is grouped by session — a logical task performed by the
   user.  On session creation we create a PASS object (pass_mkobj) and
   record its TYPE.  Every visit produces a VISITED_URL record tying the
   session to the URL.  Every download produces three records and is
   written with a pass_write that carries the data and the records
   together:

     INPUT        the file depends on the session (and thereby on the
                  sequence of URLs visited before the download)
     FILE_URL     the URL of the file itself
     CURRENT_URL  the page the user was viewing when she started the
                  download

   Sessions can be saved to disk and revived (pass_reviveobj) after a
   browser restart — the lesson the paper reports learning from Firefox
   (§6.5). *)

module Dpapi = Pass_core.Dpapi
module Record = Pass_core.Record
module Pvalue = Pass_core.Pvalue
module Ctx = Pass_core.Ctx
module Libpass = Pass_core.Libpass
module Pnode = Pass_core.Pnode

type session = {
  id : int;
  handle : Dpapi.handle;
  mutable current_url : string option;
  mutable history : string list; (* newest first *)
}

type t = {
  web : Web.t;
  proc : Process.t;
  lp : Libpass.t option; (* None on a vanilla kernel: plain browser *)
  mutable sessions : session list;
  mutable next_session : int;
}

exception Browser_error of string

let create ~web proc = { web; proc; lp = Process.libpass proc; sessions = []; next_session = 1 }

let provenance_aware t = t.lp <> None

let disclose t handle records =
  match t.lp with Some lp -> Libpass.disclose lp handle records | None -> ()

let new_session t =
  let id = t.next_session in
  t.next_session <- id + 1;
  let handle =
    match t.lp with
    | Some lp -> Libpass.mkobj ~typ:"SESSION" ~name:(Printf.sprintf "session-%d" id) lp
    | None -> Dpapi.handle (Pnode.of_int 0) (* inert placeholder *)
  in
  let s = { id; handle; current_url = None; history = [] } in
  t.sessions <- s :: t.sessions;
  s

(* Visit a URL: fetch it (following redirects), record every URL on the
   redirect chain plus the final one against the session. *)
let visit t s url =
  let final_url, chain, resource = Web.fetch t.web url in
  List.iter
    (fun u ->
      s.history <- u :: s.history;
      disclose t s.handle [ Record.make Record.Attr.visited_url (Pvalue.Str u) ])
    (chain @ [ final_url ]);
  s.current_url <- Some final_url;
  Process.cpu t.proc 200_000 (* rendering *);
  resource

(* Download [url] into [dest]: replaces the browser's plain write with a
   pass_write carrying the data and the three records of Table 1. *)
let download t s ~url ~dest =
  let final_url, _chain, resource = Web.fetch t.web url in
  let content =
    match resource with
    | Web.Download d -> d.content
    | Web.Page _ | Web.Redirect _ -> raise (Browser_error ("not downloadable: " ^ url))
  in
  let k = Process.kernel t.proc and pid = Process.pid t.proc in
  let fd =
    match Kernel.open_file k ~pid ~path:dest ~create:true with
    | Ok fd -> fd
    | Error e -> raise (Browser_error (Vfs.errno_to_string e))
  in
  (match t.lp with
  | Some lp ->
      (* provenance-aware: one pass_write with data + all three records *)
      let file_handle =
        match Kernel.handle_of_path k dest with
        | Ok h -> h
        | Error e -> raise (Browser_error (Vfs.errno_to_string e))
      in
      let records =
        [
          Record.input (Process.xref t.proc s.handle);
          Record.make Record.Attr.file_url (Pvalue.Str final_url);
          Record.make Record.Attr.current_url
            (Pvalue.Str (Option.value s.current_url ~default:""));
        ]
      in
      ignore (Libpass.write lp file_handle ~off:0 ~data:content ~records : int)
  | None -> (
      (* plain browser: an ordinary write; any provenance dies with the
         browser history *)
      match Kernel.write k ~pid ~fd ~data:content with
      | Ok () -> ()
      | Error e -> raise (Browser_error (Vfs.errno_to_string e))));
  (match Kernel.close k ~pid ~fd with Ok () -> () | Error _ -> ());
  final_url

(* --- session persistence (the Firefox lesson, §6.5) ----------------------- *)

(* Save sessions to a state file: (id, pnode, version) triples.  Each
   live session is made durable before the file records it. *)
let save_sessions t ~path =
  let ctx = Kernel.ctx (Process.kernel t.proc) in
  let buf = Buffer.create 128 in
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d\n" s.id
           (Pnode.to_int s.handle.Dpapi.pnode)
           (Ctx.current_version ctx s.handle.Dpapi.pnode)))
    t.sessions;
  Option.iter (fun lp -> List.iter (fun s -> Libpass.sync lp s.handle) t.sessions) t.lp;
  Process.write_file t.proc path (Buffer.contents buf)

(* Restore sessions after a restart: revive each object so further
   provenance lands on the same session. *)
let restore_sessions t ~path =
  let data = Process.read_file t.proc path in
  let lines = String.split_on_char '\n' data |> List.filter (fun l -> l <> "") in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ id; pnode; version ] -> (
          match t.lp with
          | Some lp ->
              let handle =
                Libpass.reviveobj lp (Pnode.of_int (int_of_string pnode)) (int_of_string version)
              in
              t.sessions <-
                { id = int_of_string id; handle; current_url = None; history = [] }
                :: t.sessions;
              t.next_session <- max t.next_session (int_of_string id + 1)
          | None -> ())
      | _ -> raise (Browser_error ("corrupt session file: " ^ line)))
    lines
