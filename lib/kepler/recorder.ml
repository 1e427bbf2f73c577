(* Kepler's provenance recording interface (paper §6.2).

   Kepler records provenance for all communication between workflow
   operators, into either a text file or a relational table — we add the
   third option the paper contributes: transmitting the provenance into
   PASSv2 via the DPAPI.

   The DPAPI backend creates a PASS object for every operator
   (pass_mkobj) and sets NAME, TYPE and PARAMS; when an operator produces
   a result, an ancestry relationship is recorded between the recipient
   and the sender with a pass_write.  Source/sink actors' file accesses
   are reported so Kepler's provenance links to the files PASS knows —
   the paper's modification of Kepler's data sink and source routines. *)

module Dpapi = Pass_core.Dpapi
module Record = Pass_core.Record
module Pvalue = Pass_core.Pvalue
module Libpass = Pass_core.Libpass

type event =
  | Operator_created of { actor : string; params : (string * string) list }
  | Transfer of { from_actor : string; to_actor : string; port : string }
  | File_read of { actor : string; path : string }
  | File_written of { actor : string; path : string }
  | Run_started of string
  | Run_finished of string

type t = {
  record : event -> unit;
  finish : unit -> unit;
}

let null = { record = (fun _ -> ()); finish = (fun () -> ()) }

(* --- text backend: one line per event, appended to a file ----------------- *)

let text ~write_line =
  let record = function
    | Operator_created { actor; params } ->
        write_line
          (Printf.sprintf "OPERATOR %s %s" actor
             (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) params)))
    | Transfer { from_actor; to_actor; port } ->
        write_line (Printf.sprintf "TRANSFER %s -> %s.%s" from_actor to_actor port)
    | File_read { actor; path } -> write_line (Printf.sprintf "READ %s %s" actor path)
    | File_written { actor; path } -> write_line (Printf.sprintf "WRITE %s %s" actor path)
    | Run_started n -> write_line ("RUN-START " ^ n)
    | Run_finished n -> write_line ("RUN-END " ^ n)
  in
  { record; finish = (fun () -> ()) }

(* --- relational backend: rows collected per table -------------------------- *)

type relational = {
  mutable operators : (string * string) list; (* actor, params *)
  mutable transfers : (string * string) list; (* from, to *)
  mutable file_events : (string * string * string) list; (* kind, actor, path *)
}

let relational () =
  let tables = { operators = []; transfers = []; file_events = [] } in
  let record = function
    | Operator_created { actor; params } ->
        tables.operators <-
          (actor, String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) params))
          :: tables.operators
    | Transfer { from_actor; to_actor; _ } ->
        tables.transfers <- (from_actor, to_actor) :: tables.transfers
    | File_read { actor; path } -> tables.file_events <- ("read", actor, path) :: tables.file_events
    | File_written { actor; path } ->
        tables.file_events <- ("write", actor, path) :: tables.file_events
    | Run_started _ | Run_finished _ -> ()
  in
  ({ record; finish = (fun () -> ()) }, tables)

(* --- DPAPI backend ---------------------------------------------------------- *)

type pass_backend = {
  lp : Libpass.t;
  objects : (string, Dpapi.handle) Hashtbl.t; (* actor -> PASS object *)
}

let operator_handle b actor =
  match Hashtbl.find_opt b.objects actor with
  | Some h -> h
  | None ->
      (* late registration: an actor we never saw created *)
      let h = Libpass.mkobj ~typ:"OPERATOR" ~name:actor b.lp in
      Hashtbl.replace b.objects actor h;
      h

let pass ~lp proc =
  let b = { lp; objects = Hashtbl.create 16 } in
  let record = function
    | Operator_created { actor; params } ->
        let h = Libpass.mkobj ~typ:"OPERATOR" ~name:actor b.lp in
        Hashtbl.replace b.objects actor h;
        if params <> [] then
          Libpass.disclose b.lp h
            [ Record.make Record.Attr.params
                (Pvalue.Strs (List.map (fun (k, v) -> k ^ "=" ^ v) params)) ]
    | Transfer { from_actor; to_actor; _ } ->
        (* ancestry between the recipient and the sender of the message *)
        let src = operator_handle b from_actor and dst = operator_handle b to_actor in
        Libpass.disclose b.lp dst [ Record.input (Process.xref proc src) ]
    | File_read { actor; path } -> (
        (* the operator depends on the file it read: links Kepler's
           provenance to PASS's *)
        match Process.handle_of_path proc path with
        | Some fh ->
            Libpass.disclose b.lp (operator_handle b actor) [ Record.input (Process.xref proc fh) ]
        | None -> ())
    | File_written { actor; path } -> (
        (* the file depends on the operator that produced it *)
        match Process.handle_of_path proc path with
        | Some fh ->
            Libpass.disclose b.lp fh [ Record.input (Process.xref proc (operator_handle b actor)) ]
        | None -> ())
    | Run_started _ -> ()
    | Run_finished _ -> ()
  in
  let finish () =
    (* make operator objects durable even if some have no persistent
       descendants (e.g. a sink that failed) *)
    Hashtbl.iter (fun _ h -> try Libpass.sync b.lp h with Libpass.Pass_error _ -> ()) b.objects
  in
  { record; finish }
