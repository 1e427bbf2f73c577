(* The durable-checkpoint protocol (DESIGN §13).

   A checkpoint is a provdb image covering every WAP log whose sequence
   number is below a watermark, plus (optionally) a cold-tier archive
   segment of compacted-away history and a sidecar of still-open
   transaction frames.  All of them are published with the same
   crash-safe discipline:

   - every payload file is digest-framed (magic, MD5, payload) and
     written to a `.tmp` name first, then renamed into place.  ext3sim
     journals a rename as a single checksummed frame, so after a crash a
     remount observes either the old file or the new one, never a tear;
   - the MANIFEST names every payload file the checkpoint consists of
     (with its digest) and is itself written temp-then-rename LAST.  The
     manifest rename is the commit point: covered WAP logs are deleted
     only after it, so a crash at any disk tick leaves either the old
     recovery story (old manifest or none, all logs intact) or the new
     one (new manifest, strays cleaned idempotently by recovery).

   The module also owns the on-disk layout both protocols share: where
   the WAP logs live (/.pass/log.<seq>) and where the checkpoint lives
   (/.waldo).  It is deliberately the only place in lib/lasagna and
   lib/waldo that writes `.pass`-metadata files with Vfs.write_file —
   passlint's inplace-metadata-write rule pins that down. *)

type manifest = {
  m_gen : int;  (* checkpoint generation, 1-based *)
  m_watermark : int;  (* WAP logs with seq < watermark are covered *)
  m_db_name : string;  (* hot provdb image, [image_name ~gen] *)
  m_db_digest : string;
  m_archives : (string * string) list;
      (* cumulative cold-tier segments, (name, digest), oldest first *)
  m_pending : (string * string) option;
      (* sidecar of open-transaction frames, (name, digest) *)
  m_pending_txns : int list;  (* ids buffered at checkpoint time, sorted *)
}

(* --- on-disk layout ----------------------------------------------------------- *)

let dir = "/.waldo"
let pass_dirname = ".pass"
let pass_dir = "/" ^ pass_dirname
let path name = dir ^ "/" ^ name
let log_path name = pass_dir ^ "/" ^ name

(* string concat, not sprintf: log rotation happens inside Lasagna's
   commit, which is on the record hot path (passarch hot-path-format). *)
let log_name seq = "log." ^ string_of_int seq

let log_seq name =
  if String.length name > 4 && String.equal (String.sub name 0 4) "log." then
    int_of_string_opt (String.sub name 4 (String.length name - 4))
  else None

let manifest_name = "MANIFEST"
let image_name ~gen = Printf.sprintf "db.%d.dat" gen
let archive_name ~gen = Printf.sprintf "archive.%d.dat" gen
let pending_name ~gen = Printf.sprintf "pending.%d.dat" gen

let ( let* ) = Result.bind

(* The WAP logs under /.pass as (seq, name), oldest first, with the
   directory's inode.  ENOENT when the volume has no /.pass. *)
let logs lower =
  let* pass_ino = Vfs.lookup_path lower pass_dir in
  let* names = lower.Vfs.readdir pass_ino in
  let logs = List.filter_map (fun n -> Option.map (fun s -> (s, n)) (log_seq n)) names in
  Ok (pass_ino, List.sort (fun (a, _) (b, _) -> Int.compare a b) logs)

(* --- digest-framed atomic payload files ---------------------------------- *)

let image_magic = "PIMG1"

let frame payload =
  let digest = Digest.string payload in
  let buf = Buffer.create (String.length payload + 64) in
  Wire.put_string buf image_magic;
  Wire.put_string buf digest;
  Wire.put_string buf payload;
  (Buffer.contents buf, digest)

(* Publish [payload] at [path]: stage the framed bytes at [path].tmp,
   then rename over [path].  Returns the payload digest recorded in the
   frame.  A leftover `.tmp` from an earlier crashed attempt is
   harmless: write_file truncates, and recovery deletes strays. *)
let write_atomic lower ~path payload =
  let framed, digest = frame payload in
  let tmp = path ^ ".tmp" in
  let* _ino = Vfs.write_file ~mkparents:true lower tmp framed in
  let* () = Vfs.rename_path lower tmp path in
  Ok digest

(* Read a digest-framed payload back; any mismatch — bad magic, torn
   frame, payload bytes that do not hash to the recorded digest — is
   reported as EIO, never raised. *)
let read_verified lower ~path =
  let* framed = Vfs.read_file lower path in
  match
    let pos = ref 0 in
    let magic = Wire.get_string framed pos in
    let digest = Wire.get_string framed pos in
    let payload = Wire.get_string framed pos in
    (magic, digest, payload)
  with
  | exception Wire.Corrupt _ -> Error Vfs.EIO
  | magic, digest, payload ->
      if
        String.equal magic image_magic
        && String.equal (Digest.string payload) digest
      then Ok (payload, digest)
      else Error Vfs.EIO

(* --- the manifest ---------------------------------------------------------- *)

let manifest_magic = "WMAN1"

let encode_manifest m =
  let buf = Buffer.create 256 in
  Wire.put_string buf manifest_magic;
  Wire.put_i64 buf m.m_gen;
  Wire.put_i64 buf m.m_watermark;
  Wire.put_string buf m.m_db_name;
  Wire.put_string buf m.m_db_digest;
  Wire.put_u32 buf (List.length m.m_archives);
  List.iter
    (fun (name, digest) ->
      Wire.put_string buf name;
      Wire.put_string buf digest)
    m.m_archives;
  (match m.m_pending with
  | None ->
      Wire.put_string buf "";
      Wire.put_string buf ""
  | Some (name, digest) ->
      Wire.put_string buf name;
      Wire.put_string buf digest);
  Wire.put_u32 buf (List.length m.m_pending_txns);
  List.iter (fun id -> Wire.put_i64 buf id) m.m_pending_txns;
  Buffer.contents buf

let decode_manifest image =
  let pos = ref 0 in
  if not (String.equal (Wire.get_string image pos) manifest_magic) then
    Wire.corrupt "checkpoint: bad manifest magic";
  let m_gen = Wire.get_i64 image pos in
  let m_watermark = Wire.get_i64 image pos in
  let m_db_name = Wire.get_string image pos in
  let m_db_digest = Wire.get_string image pos in
  let n_archives = Wire.get_u32 image pos in
  let m_archives =
    List.init n_archives (fun _ ->
        let name = Wire.get_string image pos in
        let digest = Wire.get_string image pos in
        (name, digest))
  in
  let pending_nm = Wire.get_string image pos in
  let pending_dg = Wire.get_string image pos in
  let m_pending =
    if String.equal pending_nm "" then None else Some (pending_nm, pending_dg)
  in
  let n_pending = Wire.get_u32 image pos in
  let m_pending_txns = List.init n_pending (fun _ -> Wire.get_i64 image pos) in
  { m_gen; m_watermark; m_db_name; m_db_digest; m_archives; m_pending; m_pending_txns }

(* The commit point: stage MANIFEST.tmp, rename over MANIFEST.  Until
   the rename's journal frame is durable the old manifest (or none)
   governs recovery; after it, the new one does. *)
let write_manifest lower m =
  let path = path manifest_name in
  let tmp = path ^ ".tmp" in
  let* _ino = Vfs.write_file ~mkparents:true lower tmp (encode_manifest m) in
  Vfs.rename_path lower tmp path

(* [Ok None] when no checkpoint was ever committed (fresh volume or a
   crash before the first manifest rename); EIO on a corrupt manifest. *)
let read_manifest lower =
  match Vfs.read_file lower (path manifest_name) with
  | Error Vfs.ENOENT -> Ok None
  | Error e -> Error e
  | Ok image -> (
      match decode_manifest image with
      | m -> Ok (Some m)
      | exception Wire.Corrupt _ -> Error Vfs.EIO)

(* --- WAP log truncation ---------------------------------------------------- *)

(* Delete every closed WAP log wholly covered by a durable checkpoint
   (seq < watermark).  Called only after the manifest rename committed;
   idempotent, so recovery re-runs it to finish a truncation a crash
   interrupted.  Returns the number of logs deleted. *)
let truncate_covered lower ~watermark =
  match logs lower with
  | Error Vfs.ENOENT -> Ok 0
  | Error e -> Error e
  | Ok (pass_ino, logs) ->
      let covered = List.filter (fun (s, _) -> s < watermark) logs in
      let* () =
        List.fold_left
          (fun acc (_, name) ->
            let* () = acc in
            lower.Vfs.unlink ~dir:pass_ino name)
          (Ok ()) covered
      in
      Ok (List.length covered)
