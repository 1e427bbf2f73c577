(* The observer (paper §5.3) translates system-call events into provenance
   records and passes them down the DPAPI stack (analyzer -> distributor ->
   storage).  It is on the data path: a read system call becomes a
   pass_read whose returned (pnode, version) identity lets the observer
   construct a record that accurately describes what was read; a write
   system call becomes a pass_write carrying both the data and the record
   stating that the process is an input of the file.

   The observer is also the entry point for provenance-aware applications
   that disclose provenance explicitly: when an application pass_writes
   data, the observer adds the implicit record capturing the dependency
   between the application's process and the file (paper §5.3, last
   paragraph).  [endpoint_for] builds that per-process DPAPI face. *)

exception Lower_error of string

type proc = { handle : Dpapi.handle; mutable alive : bool }

type instruments = {
  events : Telemetry.counter;
  records_emitted : Telemetry.counter;
}

type t = {
  ctx : Ctx.t;
  lower : Dpapi.endpoint; (* the analyzer *)
  procs : (int, proc) Hashtbl.t; (* pid -> process object *)
  pipes : (int, Dpapi.handle) Hashtbl.t; (* pipe id -> pipe object *)
  tracer : Pvtrace.t;
  batch : bool;
  mutable pending : (Dpapi.handle * Record.t list) list; (* newest first *)
  mutable pending_entries : int;
  i : instruments;
}

let create ?registry ?(tracer = Pvtrace.disabled) ?(batch = true) ~ctx ~lower () =
  { ctx; lower; procs = Hashtbl.create 64; pipes = Hashtbl.create 16; tracer;
    batch; pending = []; pending_entries = 0;
    i = { events = Telemetry.counter ?registry "observer.events";
          records_emitted = Telemetry.counter ?registry "observer.records_emitted" } }

let ( let* ) = Result.bind

(* --- syscall-burst batching --------------------------------------------- *)

(* Emissions that carry only non-ancestry records for virtual objects the
   context already knows can be deferred and handed down as one bundle:
   processing them reads nothing from the context but the target's current
   version (which only an ancestry record, a freeze or a data write can
   move, and each of those flushes first), so the analyzer and distributor
   see the exact record stream they would have seen unbatched — same
   order, same dedup keys, same cycle-avoidance decisions. *)
let queueable t (target : Dpapi.handle) records =
  t.batch && target.volume = None
  && Ctx.known t.ctx target.pnode
  && not (List.exists Record.is_ancestry records)

let batch_high_water = 64

(* Hand the queued burst downstream as one bundle.  The carrying handle is
   the first entry's (virtual) target, so the distributor routes every
   entry exactly as it would have routed the unbatched stream. *)
let flush t =
  match t.pending with
  | [] -> Ok ()
  | rev_entries ->
      let bundle = List.rev_map (fun (h, rs) -> Dpapi.entry h rs) rev_entries in
      t.pending <- [];
      t.pending_entries <- 0;
      Pvtrace.event t.tracer ~layer:"observer" ~op:"batch_flush"
        ~outcome:(string_of_int (List.length bundle)) ();
      let carrying = (List.hd bundle).Dpapi.target in
      Result.map
        (fun (_ : int) -> ())
        (t.lower.pass_write carrying ~off:0 ~data:None bundle)

let enqueue t target records =
  t.pending <- (target, records) :: t.pending;
  t.pending_entries <- t.pending_entries + 1;
  if t.pending_entries >= batch_high_water then flush t else Ok ()

let emit t target records =
  Telemetry.add t.i.records_emitted (List.length records);
  Pvtrace.event t.tracer ~layer:"observer" ~op:"emit"
    ~pnode:(Pnode.to_int target.Dpapi.pnode) ~outcome:"emitted" ();
  if queueable t target records then enqueue t target records
  else
    match t.pending with
    | [] -> Dpapi.disclose t.lower target records
    | pending ->
        (* an ancestry record must be admitted at event time: send the
           queue and the new emission as one bundle, preserving order *)
        t.pending <- (target, records) :: pending;
        flush t

let proc_state t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p -> p
  | None ->
      (* a process we have not seen born (e.g. pre-existing init): create
         its object on first contact *)
      let handle =
        match t.lower.pass_mkobj ~volume:None with
        | Ok h -> h
        | Error e -> raise (Lower_error ("mkobj: " ^ Dpapi.error_to_string e))
      in
      let p = { handle; alive = true } in
      Hashtbl.add t.procs pid p;
      let _ : (unit, Dpapi.error) result =
        emit t handle
          [ Record.typ "PROCESS"; Record.make Record.Attr.pid (Pvalue.Int pid) ]
      in
      p

let proc_handle t pid = (proc_state t pid).handle

let proc_xref t pid =
  let h = proc_handle t pid in
  Pvalue.xref h.pnode (Ctx.current_version t.ctx h.pnode)

(* --- system call events ------------------------------------------------ *)

let fork t ~parent ~child =
  Telemetry.incr t.i.events;
  let ph = proc_handle t parent in
  let child_handle =
    match t.lower.pass_mkobj ~volume:None with
    | Ok h -> h
    | Error e -> raise (Lower_error ("fork mkobj: " ^ Dpapi.error_to_string e))
  in
  Hashtbl.replace t.procs child { handle = child_handle; alive = true };
  emit t child_handle
    [
      Record.typ "PROCESS";
      Record.make Record.Attr.pid (Pvalue.Int child);
      Record.input_of ph.pnode (Ctx.current_version t.ctx ph.pnode);
    ]

let execve t ~pid ~path ~argv ~env ~binary =
  Telemetry.incr t.i.events;
  let p = proc_handle t pid in
  (* learn the exact identity of the binary being executed *)
  let* id = t.lower.pass_read binary ~off:0 ~len:0 in
  emit t p
    [
      Record.name path;
      Record.make Record.Attr.argv (Pvalue.Strs argv);
      Record.make Record.Attr.env (Pvalue.Strs env);
      Record.input_of id.r_pnode id.r_version;
    ]

let exit t ~pid =
  Telemetry.incr t.i.events;
  (match Hashtbl.find_opt t.procs pid with
  | Some p -> p.alive <- false
  | None -> ());
  Ok ()

(* read: pass_read the file, then record that the process depends on the
   exact version read. *)
let read t ~pid ~file ~off ~len =
  Telemetry.incr t.i.events;
  let p = proc_handle t pid in
  let* r = t.lower.pass_read file ~off ~len in
  let* () = emit t p [ Record.input_of r.r_pnode r.r_version ] in
  Ok r

(* write: send the data together with the record stating that the process
   is an input of the file. *)
let write t ~pid ~file ~off ~data =
  Telemetry.incr t.i.events;
  (* data writes flush the burst first: the data's own pass_write carries a
     volume-ful handle, and riding entries would be routed to its volume *)
  let* () = flush t in
  let record = Record.input (proc_xref t pid) in
  Telemetry.incr t.i.records_emitted;
  Pvtrace.event t.tracer ~layer:"observer" ~op:"emit"
    ~pnode:(Pnode.to_int file.Dpapi.pnode) ~outcome:"emitted" ();
  t.lower.pass_write file ~off ~data:(Some data) [ Dpapi.entry file [ record ] ]

let mmap t ~pid ~file ~writable =
  Telemetry.incr t.i.events;
  let p = proc_handle t pid in
  let* r = t.lower.pass_read file ~off:0 ~len:0 in
  let* () = emit t p [ Record.input_of r.r_pnode r.r_version ] in
  if writable then emit t file [ Record.input (proc_xref t pid) ] else Ok ()

let pipe_create t ~pid ~pipe_id =
  Telemetry.incr t.i.events;
  let* h = t.lower.pass_mkobj ~volume:None in
  Hashtbl.replace t.pipes pipe_id h;
  let* () = emit t h [ Record.typ "PIPE" ] in
  let _ : proc = proc_state t pid in
  Ok ()

let pipe_handle t pipe_id =
  match Hashtbl.find_opt t.pipes pipe_id with
  | Some h -> Ok h
  | None -> Error Dpapi.Ebadf

let pipe_write t ~pid ~pipe_id =
  Telemetry.incr t.i.events;
  let* h = pipe_handle t pipe_id in
  emit t h [ Record.input (proc_xref t pid) ]

let pipe_read t ~pid ~pipe_id =
  Telemetry.incr t.i.events;
  let* h = pipe_handle t pipe_id in
  let p = proc_handle t pid in
  emit t p [ Record.input (Pvalue.xref h.pnode (Ctx.current_version t.ctx h.pnode)) ]

let drop_inode t ~file:_ =
  Telemetry.incr t.i.events;
  Ok ()

(* --- the DPAPI face handed to provenance-aware applications ------------ *)

let endpoint_for t ~pid : Dpapi.endpoint =
  let lower = t.lower in
  {
    pass_read =
      (fun h ~off ~len ->
        (* a disclosing application still depends on what it reads *)
        let* r = lower.pass_read h ~off ~len in
        let p = proc_handle t pid in
        let* () = emit t p [ Record.input_of r.r_pnode r.r_version ] in
        Ok r);
    pass_write =
      (fun h ~off ~data bundle ->
        (* apart from the disclosed provenance, capture the dependency
           between the application and the written object *)
        let bundle =
          match data with
          | Some _ -> Dpapi.entry h [ Record.input (proc_xref t pid) ] :: bundle
          | None -> bundle
        in
        Telemetry.add t.i.records_emitted
          (List.fold_left (fun n (e : Dpapi.bundle_entry) -> n + List.length e.records) 0 bundle);
        if
          data = None
          && bundle <> []
          && List.for_all (fun (e : Dpapi.bundle_entry) -> queueable t e.target e.records) bundle
        then begin
          let* () =
            List.fold_left
              (fun acc (e : Dpapi.bundle_entry) ->
                let* () = acc in
                enqueue t e.target e.records)
              (Ok ()) bundle
          in
          Ok (Ctx.current_version t.ctx h.Dpapi.pnode)
        end
        else
          let* () = flush t in
          lower.pass_write h ~off ~data bundle);
    pass_freeze =
      (fun h ->
        (* a freeze moves the target's version: queued records must be
           admitted under the pre-freeze version, as they were emitted *)
        let* () = flush t in
        lower.pass_freeze h);
    pass_mkobj = lower.pass_mkobj;
    pass_reviveobj =
      (fun p v ->
        let* () = flush t in
        lower.pass_reviveobj p v);
    pass_sync =
      (fun h ->
        let* () = flush t in
        lower.pass_sync h);
  }
