(* The Disclosed Provenance API (paper §5.2): the single universal interface
   through which provenance moves between components of PASSv2 and between
   layers of provenance-aware systems.

   An endpoint is a record of the six DPAPI operations.  Layers compose by
   wrapping a lower endpoint: observer -> analyzer -> distributor -> storage.
   Provenance-aware applications hold an endpoint through Libpass. *)

type error =
  | Enoent  (* no such object *)
  | Eio  (* I/O error (including simulated disk crash) *)
  | Ebadf  (* invalid handle *)
  | Einval  (* invalid argument *)
  | Estale  (* handle refers to a dead/stale object *)
  | Enospc  (* volume out of space *)
  | Eexist  (* object already exists *)
  | Ecrashed  (* machine or volume has crashed *)
  | Eagain  (* backpressure: retry later (write-behind queue full) *)
  | Emsg of string  (* anything else, with an explanation *)

let of_errno : Vfs.errno -> error = function
  | Vfs.ENOENT -> Enoent
  | Vfs.EEXIST -> Eexist
  | Vfs.EINVAL -> Einval
  | Vfs.ESTALE | Vfs.EBADF -> Estale
  | Vfs.ENOSPC -> Enospc
  | Vfs.ECRASH -> Ecrashed
  | Vfs.EAGAIN -> Eagain
  | Vfs.EIO | Vfs.ENOTDIR | Vfs.EISDIR | Vfs.ENOTEMPTY -> Eio

let to_errno : error -> Vfs.errno = function
  | Enoent -> Vfs.ENOENT
  | Eexist -> Vfs.EEXIST
  | Einval -> Vfs.EINVAL
  | Estale -> Vfs.ESTALE
  | Enospc -> Vfs.ENOSPC
  | Ecrashed -> Vfs.ECRASH
  | Ebadf -> Vfs.EBADF
  | Eagain -> Vfs.EAGAIN
  | Eio | Emsg _ -> Vfs.EIO

let error_to_string = function
  | Enoent -> "ENOENT"
  | Eio -> "EIO"
  | Ebadf -> "EBADF"
  | Einval -> "EINVAL"
  | Estale -> "ESTALE"
  | Enospc -> "ENOSPC"
  | Eexist -> "EEXIST"
  | Ecrashed -> "ECRASHED"
  | Eagain -> "EAGAIN"
  | Emsg m -> m

(* A handle names an object for DPAPI purposes.  Files carry the volume they
   live on; virtual objects (processes, pipes, browser sessions, data sets)
   carry [volume = None] until the distributor assigns them one. *)
type handle = { pnode : Pnode.t; volume : string option }

let handle ?volume pnode = { pnode; volume }

type read_result = { data : string; r_pnode : Pnode.t; r_version : int }

(* A provenance bundle: an array of object handles and records, each
   potentially describing a different object, sent as a single unit so that
   the complete provenance of a block of data (several processes and pipes in
   a pipeline, say) stays consistent (paper §5.2). *)
type bundle_entry = { target : handle; records : Record.t list }
type bundle = bundle_entry list

let entry target records = { target; records }

type endpoint = {
  pass_read : handle -> off:int -> len:int -> (read_result, error) result;
      (* like read, but also returns the exact identity of what was read *)
  pass_write : handle -> off:int -> data:string option -> bundle -> (int, error) result;
      (* write data (if any) plus the bundle describing it; returns the
         version of [handle] the write landed in *)
  pass_freeze : handle -> (int, error) result;
      (* break cycles by requesting a new version; returns the new version *)
  pass_mkobj : volume:string option -> (handle, error) result;
      (* create an object with no file-system manifestation *)
  pass_reviveobj : Pnode.t -> int -> (handle, error) result;
      (* reattach to an object previously created via pass_mkobj *)
  pass_sync : handle -> (unit, error) result;
      (* force the object's provenance to persistent storage *)
}

let ( let* ) = Result.bind

(* Convenience: a provenance-only write (no data), the common case for
   disclosing records about an object. *)
let disclose ep target records =
  let* _version = ep.pass_write target ~off:0 ~data:None [ entry target records ] in
  Ok ()

(* Trace instrumentation: wrap an endpoint so each of the six operations
   runs inside a pvtrace span named "<layer>.<op>".  Errors become the
   span outcome (lowercased errno).  Identity when the tracer is
   disabled, so uninstrumented assemblies pay nothing. *)
let traced ~tracer ~layer ep =
  if not (Pvtrace.enabled tracer) then ep
  else begin
    let outcome r =
      (match r with
      | Ok _ -> ()
      | Error e ->
          Pvtrace.set_outcome tracer
            (String.lowercase_ascii (error_to_string e)));
      r
    in
    let wrap op ?(pnode = 0) f =
      Pvtrace.span tracer ~layer ~op ~pnode (fun () -> outcome (f ()))
    in
    let pn h = Pnode.to_int h.pnode in
    {
      pass_read =
        (fun h ~off ~len ->
          wrap "pass_read" ~pnode:(pn h) (fun () -> ep.pass_read h ~off ~len));
      pass_write =
        (fun h ~off ~data bundle ->
          wrap "pass_write" ~pnode:(pn h) (fun () ->
              ep.pass_write h ~off ~data bundle));
      pass_freeze =
        (fun h -> wrap "pass_freeze" ~pnode:(pn h) (fun () -> ep.pass_freeze h));
      pass_mkobj =
        (fun ~volume -> wrap "pass_mkobj" (fun () -> ep.pass_mkobj ~volume));
      pass_reviveobj =
        (fun pnode version ->
          wrap "pass_reviveobj" ~pnode:(Pnode.to_int pnode) (fun () ->
              ep.pass_reviveobj pnode version));
      pass_sync =
        (fun h -> wrap "pass_sync" ~pnode:(pn h) (fun () -> ep.pass_sync h));
    }
  end

(* Wire form of bundles, shared by the WAP log and PA-NFS. *)
let encode_entry buf { target; records } =
  Buffer.add_int64_le buf (Int64.of_int (Pnode.to_int target.pnode));
  Pvalue.put_string buf (Option.value target.volume ~default:"");
  Pvalue.put_u32 buf (List.length records);
  List.iter (Record.encode buf) records

let decode_entry s pos =
  let pnode = Pnode.of_int (Pvalue.get_i64 s pos) in
  let vol = Pvalue.get_string s pos in
  let volume = if String.equal vol "" then None else Some vol in
  let n = Pvalue.get_u32 s pos in
  let rec loop k acc =
    if k = 0 then List.rev acc else loop (k - 1) (Record.decode s pos :: acc)
  in
  { target = { pnode; volume }; records = loop n [] }

let encode_bundle buf bundle =
  Pvalue.put_u32 buf (List.length bundle);
  List.iter (encode_entry buf) bundle

let decode_bundle s pos =
  let n = Pvalue.get_u32 s pos in
  let rec loop k acc =
    if k = 0 then List.rev acc else loop (k - 1) (decode_entry s pos :: acc)
  in
  loop n []

(* Arithmetic twin of [encode_bundle] (the u32 count, then per entry the
   i64 pnode, the length-prefixed volume and the u32 record count): size
   probes run on every hot-path write and must not encode. *)
let bundle_size bundle =
  List.fold_left
    (fun acc { target; records } ->
      List.fold_left
        (fun acc r -> acc + Record.encoded_size r)
        (acc + 16 + match target.volume with Some v -> String.length v | None -> 0)
        records)
    4 bundle
