(* Cold-tier provenance archive (DESIGN §13).

   Compaction moves expired versions out of the hot provdb into
   append-only archive segments — each a digest-framed provdb image
   holding one generation's newly-expired version range, named by the
   checkpoint MANIFEST.  Queries that never dip below a node's floor run
   entirely hot; the first one that does faults every listed segment
   back in through {!Provdb.set_fault_handler}, after which the db
   answers exactly as if it had never been compacted. *)

let ( let* ) = Result.bind

let counter ?registry name = Telemetry.counter ?registry ("waldo." ^ name)

(* Read and verify every archive segment, then load each straight into
   [dst] (Provdb.load: max semantics for max_version and floor).  A
   segment whose payload digest disagrees with the digest the manifest
   recorded is treated as corrupt (EIO), same as a torn frame.  Nothing
   is loaded until every segment has passed, so a failed read leaves
   [dst] untouched for the retry. *)
let load_into ?registry lower ~segments dst =
  let loaded = counter ?registry "archive_segments_loaded" in
  let* payloads =
    List.fold_left
      (fun acc (name, digest) ->
        let* acc = acc in
        let* payload, stored = Checkpoint.read_verified lower ~path:(Checkpoint.path name) in
        if String.equal stored digest then Ok (payload :: acc) else Error Vfs.EIO)
      (Ok []) segments
  in
  List.fold_left
    (fun acc payload ->
      let* () = acc in
      match Provdb.load dst payload with
      | () ->
          Telemetry.incr loaded;
          Ok ()
      | exception Wire.Corrupt _ -> Error Vfs.EIO)
    (Ok ()) (List.rev payloads)

(* Arm [db] to fault the archive in on demand.  The handler loads ALL
   segments in manifest order (oldest first) so version ranges land in
   ingest order; Provdb's cold_loaded flag guarantees it runs at most
   once per successful load. *)
let install_handler ?registry lower ~segments db =
  if segments <> [] then begin
    let fault_ins = counter ?registry "archive_fault_ins" in
    let load_errors = counter ?registry "archive_load_errors" in
    Provdb.set_fault_handler db (fun dst ->
        Telemetry.incr fault_ins;
        match load_into ?registry lower ~segments dst with
        | Ok () -> true
        | Error e ->
            Telemetry.incr load_errors;
            Logs.warn (fun m ->
                m "waldo: archive fault-in failed: %s" (Vfs.errno_to_string e));
            false)
  end
