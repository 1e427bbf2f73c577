(* Lasagna (paper §5.6): the provenance-aware file system.

   Lasagna is a stackable layer: it presents Vfs.ops like any file system
   and implements the DPAPI in addition, passing plain file operations
   through to a lower file system (ext3sim locally, the PA-NFS client
   remotely).  Provenance is written to a log kept in a hidden `.pass`
   directory on the lower file system under the write-ahead-provenance
   (WAP) protocol: the provenance frame — including an MD5 of the data —
   always reaches the log before the data it describes reaches its file.
   When the active log exceeds a maximum size it is closed and a new one
   opened; registered listeners (Waldo's simulated inotify) are told about
   each closed log.

   Stacking cost: like eCryptfs, a stackable file system caches both its
   own pages and the lower file system's pages.  We charge a per-byte
   double-buffering cost on the data path; the paper identifies this as
   the dominant source of Postmark's overhead. *)

module Pnode = Pass_core.Pnode
module Ctx = Pass_core.Ctx
module Dpapi = Pass_core.Dpapi
module Record = Pass_core.Record

(* Registry-backed instruments.  The WAP log owns the [wap.*] names, the
   stacking data path [lasagna.*]. *)
type instruments = {
  frames_written : Telemetry.counter; (* wap.frames_written *)
  bytes_written : Telemetry.counter; (* wap.bytes_written *)
  rotations : Telemetry.counter; (* wap.rotations *)
  commits : Telemetry.counter; (* wap.group_commits *)
  data_bytes : Telemetry.counter; (* lasagna.data_bytes *)
  append_ns : Telemetry.histogram; (* wap.append_ns, simulated span *)
  io_retries : Telemetry.counter; (* lasagna.io_retries *)
  queue_depth : Telemetry.gauge; (* wap.queue_depth: frames pending commit *)
}

type t = {
  lower : Vfs.ops;
  ctx : Ctx.t;
  volume : string;
  charge : int -> unit;
  tracer : Pvtrace.t;
  log_max : int;
  idle_ns : int; (* dormancy threshold for closing the active log *)
  now : unit -> int; (* the machine clock, for dormancy *)
  mutable last_append_ns : int;
  pass_dir : Vfs.ino;
  mutable log_seq : int;
  mutable log_ino : Vfs.ino;
  mutable log_off : int;
  group_commit : bool;
  pending : Buffer.t; (* encoded frames queued for the next group commit *)
  mutable pending_frames : int;
  mutable listeners : (string -> Vfs.ino -> unit) list;
  by_pnode : (Pnode.t, Vfs.ino) Hashtbl.t;
  by_ino : (Vfs.ino, Pnode.t) Hashtbl.t;
  virtuals : (Pnode.t, unit) Hashtbl.t;
  described : (Pnode.t * int, int * int) Hashtbl.t;
      (* versions with a data-identity frame -> (off, len) of the last
         digested range; a later write overlapping it must re-digest or
         recovery would flag clean data *)
  i : instruments;
}

let pass_dirname = ".pass"
(* string concat, not sprintf: log rotation happens inside commit, which
   is on the record hot path (passarch hot-path-format). *)
let log_name seq = "log." ^ string_of_int seq

(* 1 ns per byte: the extra page-cache copy a stackable FS performs. *)
let double_buffer_ns_per_byte = 1

(* WAP makes log writes part of the workload's own commit sweeps: each
   frame the kernel appends must reach the disk ahead of the data it
   describes, stealing elevator slots from the workload's metadata I/O
   ("provenance writes interfere with patch's metadata I/O, leading to
   extra seeks", paper §7).  Charged per frame. *)
let wap_interference_ns = 400_000

let ( let* ) = Result.bind

let errno_to_dpapi : Vfs.errno -> Dpapi.error = function
  | Vfs.ENOENT -> Dpapi.Enoent
  | Vfs.EEXIST -> Dpapi.Eexist
  | Vfs.EINVAL -> Dpapi.Einval
  | Vfs.ESTALE | Vfs.EBADF -> Dpapi.Estale
  | Vfs.ENOSPC -> Dpapi.Enospc
  | Vfs.ECRASH -> Dpapi.Ecrashed
  | Vfs.EAGAIN -> Dpapi.Eagain
  | Vfs.EIO | Vfs.ENOTDIR | Vfs.EISDIR | Vfs.ENOTEMPTY -> Dpapi.Eio

let lift r = Result.map_error errno_to_dpapi r

let volume t = t.volume

(* Transient disk errors (the fault plan's EIO kind) are retried a few
   times before surfacing; permanent EIO still escapes after the budget.
   WAP ordering is unaffected: a retried frame or data write lands whole
   or not at all at this layer. *)
let io_retry_budget = 4

let with_io_retry t f =
  let rec go n =
    match f () with
    | Error Vfs.EIO when n < io_retry_budget ->
        Telemetry.incr t.i.io_retries;
        go (n + 1)
    | r -> r
  in
  go 0

let fresh_log t =
  match
    with_io_retry t (fun () ->
        t.lower.create ~dir:t.pass_dir (log_name t.log_seq) Vfs.Regular)
  with
  | Ok ino ->
      t.log_ino <- ino;
      t.log_off <- 0
  | Error e -> Vfs.fatal "lasagna: cannot create log" e

let create ?registry ?(log_max = 1 lsl 20) ?(idle_ns = 5_000_000_000) ?(now = fun () -> 0)
    ?(tracer = Pvtrace.disabled) ?(group_commit = true) ~lower ~ctx ~volume ~charge () =
  let pass_dir =
    match Vfs.mkdir_p lower ("/" ^ pass_dirname) with
    | Ok ino -> ino
    | Error e -> Vfs.fatal "lasagna: cannot make .pass" e
  in
  (* Remount over retained logs: when Waldo runs under a checkpoint
     policy, processed logs stay on disk until a checkpoint covers them,
     so the active log's sequence number must resume past whatever
     log.<n> already exists (the old active log is left as-is and is
     replayed / covered like any closed log). *)
  let log_seq =
    match lower.Vfs.readdir pass_dir with
    | Error e -> Vfs.fatal "lasagna: cannot read .pass" e
    | Ok names ->
        List.fold_left
          (fun seq name ->
            match Checkpoint.log_seq name with
            | Some s when s + 1 > seq -> s + 1
            | _ -> seq)
          0 names
  in
  let t =
    {
      lower; ctx; volume; charge; tracer; log_max; idle_ns; now; last_append_ns = 0; pass_dir;
      log_seq; log_ino = -1; log_off = 0; group_commit;
      pending = Buffer.create 1024; pending_frames = 0; listeners = [];
      by_pnode = Hashtbl.create 1024;
      by_ino = Hashtbl.create 1024;
      virtuals = Hashtbl.create 256;
      described = Hashtbl.create 1024;
      i =
        {
          frames_written = Telemetry.counter ?registry "wap.frames_written";
          bytes_written = Telemetry.counter ?registry "wap.bytes_written";
          rotations = Telemetry.counter ?registry "wap.rotations";
          commits = Telemetry.counter ?registry "wap.group_commits";
          data_bytes = Telemetry.counter ?registry "lasagna.data_bytes";
          append_ns = Telemetry.histogram ?registry "wap.append_ns";
          io_retries = Telemetry.counter ?registry "lasagna.io_retries";
          queue_depth = Telemetry.gauge ?registry "wap.queue_depth";
        };
    }
  in
  fresh_log t;
  t

let on_log_closed t f = t.listeners <- f :: t.listeners

let rotate_log t =
  let closed = log_name t.log_seq in
  let closed_ino = t.log_ino in
  t.log_seq <- t.log_seq + 1;
  Telemetry.incr t.i.rotations;
  Pvtrace.event t.tracer ~layer:"lasagna" ~op:"log_rotate" ~outcome:"flushed" ();
  fresh_log t;
  List.iter (fun f -> f closed closed_ino) t.listeners

(* Group commit: frames queue in [t.pending] and reach the lower file
   system in one write at the next barrier — a data write they must
   precede (WAP), an fsync/sync, rotation, or drain.  The log's byte
   stream is byte-identical to frame-at-a-time appends, so Waldo,
   recovery and pvcheck see the same log either way; the elevator
   interference is charged once per commit instead of once per frame. *)
let commit t =
  if Buffer.length t.pending = 0 then Ok ()
  else begin
    let encoded = Buffer.contents t.pending in
    let frames = t.pending_frames in
    Buffer.clear t.pending;
    t.pending_frames <- 0;
    Telemetry.set t.i.queue_depth 0.;
    t.charge wap_interference_ns;
    match with_io_retry t (fun () -> t.lower.write t.log_ino ~off:t.log_off encoded) with
    | Error _ as e ->
        (* the queued tail dies with the failed log write — the same state
           a crash at this instant leaves on disk.  The op that forced the
           barrier sees the error; replaying the frames later would log
           provenance for operations that were reported failed. *)
        e
    | Ok () ->
        t.log_off <- t.log_off + String.length encoded;
        Telemetry.incr t.i.commits;
        Pvtrace.event t.tracer ~layer:"lasagna" ~op:"group_commit"
          ~outcome:(string_of_int frames) ();
        if t.log_off >= t.log_max then rotate_log t;
        Ok ()
  end

(* Force-close the current log so Waldo can drain everything (used at
   "unmount" time and by benchmarks before reading the database). *)
let flush_log t =
  (match commit t with Ok () -> () | Error _ -> (* tail dropped by commit *) ());
  if t.log_off > 0 then rotate_log t

let append_frame t frame =
  Telemetry.with_span t.i.append_ns ~now:t.now @@ fun () ->
  (* dormancy rotation (paper §5.6): if the log has been idle past the
     threshold, close it so Waldo can process it without waiting for the
     size limit *)
  let now = t.now () in
  let* () =
    if (t.log_off > 0 || Buffer.length t.pending > 0) && now - t.last_append_ns > t.idle_ns
    then begin
      let* () = commit t in
      if t.log_off > 0 then rotate_log t;
      Ok ()
    end
    else Ok ()
  in
  t.last_append_ns <- now;
  let before = Buffer.length t.pending in
  Wap_log.encode_frame_into t.pending frame;
  t.pending_frames <- t.pending_frames + 1;
  Telemetry.set t.i.queue_depth (float_of_int t.pending_frames);
  Telemetry.incr t.i.frames_written;
  Telemetry.add t.i.bytes_written (Buffer.length t.pending - before);
  if (not t.group_commit) || t.log_off + Buffer.length t.pending >= t.log_max then commit t
  else Ok ()

(* Make sure storage knows the pnode: files get a Map frame at create time;
   any other pnode that reaches us (a process being anchored, an application
   object) gets an implicit Mkobj frame. *)
let ensure_known t pnode =
  if Hashtbl.mem t.by_pnode pnode || Hashtbl.mem t.virtuals pnode then Ok ()
  else begin
    Hashtbl.replace t.virtuals pnode ();
    append_frame t (Wap_log.Mkobj { pnode })
  end

let register_file t ~ino ~name =
  let pnode = Ctx.fresh t.ctx in
  Hashtbl.replace t.by_pnode pnode ino;
  Hashtbl.replace t.by_ino ino pnode;
  let* () = append_frame t (Wap_log.Map { pnode; ino; name }) in
  Ok pnode

let pnode_of_ino t ino =
  match Hashtbl.find_opt t.by_ino ino with
  | Some p -> Ok p
  | None -> (
      (* file created below us (or before stacking): adopt it lazily *)
      match register_file t ~ino ~name:"" with Ok p -> Ok p | Error e -> Error e)

let ino_of_pnode t pnode = Hashtbl.find_opt t.by_pnode pnode

let file_handle t ino =
  match pnode_of_ino t ino with
  | Ok pnode -> Ok (Dpapi.handle ~volume:t.volume pnode)
  | Error e -> Error e

(* --- DPAPI face ---------------------------------------------------------- *)

let pass_read t (h : Dpapi.handle) ~off ~len =
  match ino_of_pnode t h.pnode with
  | None ->
      if Hashtbl.mem t.virtuals h.pnode then
        Ok { Dpapi.data = ""; r_pnode = h.pnode; r_version = Ctx.current_version t.ctx h.pnode }
      else Error Dpapi.Enoent
  | Some ino ->
      let* data = lift (with_io_retry t (fun () -> t.lower.read ino ~off ~len)) in
      t.charge (String.length data * double_buffer_ns_per_byte);
      Telemetry.add t.i.data_bytes (String.length data);
      Ok { Dpapi.data; r_pnode = h.pnode; r_version = Ctx.current_version t.ctx h.pnode }

let log_bundle ?txn t (h : Dpapi.handle) ~off ~data bundle =
  let rec ensure_all = function
    | [] -> Ok ()
    | (e : Dpapi.bundle_entry) :: rest ->
        let* () = lift (ensure_known t e.target.pnode) in
        ensure_all rest
  in
  let* () = ensure_all bundle in
  (* A data-identity (MD5) frame is required the first time data lands in
     a version; subsequent chunks of the same version carry no new
     provenance and need no frame — WAP already holds for them because
     the version's provenance is on disk. *)
  let version = Ctx.current_version t.ctx h.pnode in
  let needs_data_frame =
    match data with
    | None -> false
    | Some d -> (
        bundle <> []
        ||
        match Hashtbl.find_opt t.described (h.pnode, version) with
        | None -> true
        | Some (o, l) ->
            (* re-digest if the new write overlaps the digested range *)
            off < o + l && o < off + String.length d)
  in
  if bundle = [] && not needs_data_frame then Ok ()
  else begin
    let data_id =
      match data with
      | Some d when needs_data_frame ->
          Hashtbl.replace t.described (h.pnode, version) (off, String.length d);
          Some
            { Wap_log.d_pnode = h.pnode; d_off = off; d_len = String.length d;
              d_md5 = Wap_log.md5 d }
      | Some _ | None -> None
    in
    lift (append_frame t (Wap_log.Bundle { txn; bundle; data = data_id }))
  end

let pass_write ?txn t (h : Dpapi.handle) ~off ~data bundle =
  (* WAP: provenance first … *)
  let* () = log_bundle ?txn t h ~off ~data bundle in
  (* … then the data it describes. *)
  let* () =
    match (data, ino_of_pnode t h.pnode) with
    | Some d, Some ino ->
        (* WAP barrier: queued frames must be durable before the data *)
        let* () = lift (commit t) in
        t.charge (String.length d * double_buffer_ns_per_byte);
        Telemetry.add t.i.data_bytes (String.length d);
        lift (with_io_retry t (fun () -> t.lower.write ino ~off d))
    | Some _, None ->
        (* data aimed at a virtual object has no backing store *)
        lift (ensure_known t h.pnode)
    | None, _ -> Ok ()
  in
  Ok (Ctx.current_version t.ctx h.pnode)

let pass_freeze t (h : Dpapi.handle) =
  let old_version = Ctx.current_version t.ctx h.pnode in
  let version = Ctx.freeze t.ctx h.pnode in
  let records =
    [ Record.make Record.Attr.freeze (Pass_core.Pvalue.Int version);
      Record.input_of h.pnode old_version ]
  in
  let* () = log_bundle t h ~off:0 ~data:None [ Dpapi.entry h records ] in
  Ok version

let pass_mkobj t =
  let pnode = Ctx.fresh t.ctx in
  Hashtbl.replace t.virtuals pnode ();
  let* () = lift (append_frame t (Wap_log.Mkobj { pnode })) in
  Ok (Dpapi.handle ~volume:t.volume pnode)

let pass_reviveobj t pnode version =
  let known = Hashtbl.mem t.virtuals pnode || Hashtbl.mem t.by_pnode pnode in
  if not known then Error Dpapi.Enoent
  else if version > Ctx.current_version t.ctx pnode then Error Dpapi.Estale
  else Ok (Dpapi.handle ~volume:t.volume pnode)

let pass_sync t (_h : Dpapi.handle) =
  let* () = lift (commit t) in
  lift (t.lower.fsync t.log_ino)

let endpoint t : Dpapi.endpoint =
  {
    pass_read = (fun h ~off ~len -> pass_read t h ~off ~len);
    pass_write = (fun h ~off ~data b -> pass_write t h ~off ~data b);
    pass_freeze = (fun h -> pass_freeze t h);
    pass_mkobj = (fun ~volume:_ -> pass_mkobj t);
    pass_reviveobj = (fun p v -> pass_reviveobj t p v);
    pass_sync = (fun h -> pass_sync t h);
  }

let write_txn_bundle = pass_write (* exposed with [?txn] for the NFS server *)

(* Exposed commit barrier: the NFS server flushes queued frames before a
   reply leaves, since an acked request's provenance must be durable. *)
let commit_log = commit

(* --- VFS face ------------------------------------------------------------ *)

let ops t : Vfs.ops =
  let lower = t.lower in
  {
    root = lower.root;
    lookup =
      (fun ~dir name ->
        if dir = lower.root () && String.equal name pass_dirname then Error Vfs.ENOENT
        else lower.lookup ~dir name);
    create =
      (fun ~dir name kind ->
        if String.equal name pass_dirname then Error Vfs.EINVAL
        else
          let* ino = lower.create ~dir name kind in
          (if kind = Vfs.Regular then
             match register_file t ~ino ~name with Ok _ -> () | Error _ -> ());
          Ok ino);
    unlink =
      (fun ~dir name ->
        let* () = lower.unlink ~dir name in
        Ok ());
    rename =
      (fun ~src_dir ~src_name ~dst_dir ~dst_name ->
        (* provenance travels with the inode: the pnode map is keyed by ino,
           so a renamed file keeps its provenance (paper §3.2) *)
        lower.rename ~src_dir ~src_name ~dst_dir ~dst_name);
    read =
      (fun ino ~off ~len ->
        let* data = with_io_retry t (fun () -> lower.read ino ~off ~len) in
        t.charge (String.length data * double_buffer_ns_per_byte);
        Ok data);
    write =
      (fun ino ~off data ->
        (* data may outrun queued provenance only if the frames land
           first: the same WAP barrier as the DPAPI write path *)
        let* () = commit t in
        t.charge (String.length data * double_buffer_ns_per_byte);
        with_io_retry t (fun () -> lower.write ino ~off data));
    truncate =
      (fun ino len ->
        let* () = commit t in
        lower.truncate ino len);
    getattr = lower.getattr;
    readdir =
      (fun ino ->
        let* names = lower.readdir ino in
        Ok (List.filter (fun n -> not (String.equal n pass_dirname)) names));
    fsync =
      (fun ino ->
        let* () = commit t in
        lower.fsync ino);
    sync =
      (fun () ->
        let* () = commit t in
        lower.sync ());
  }
