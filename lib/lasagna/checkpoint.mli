(** The durable-checkpoint protocol shared by Waldo and recovery.

    A checkpoint publishes a provdb image (plus optional cold-tier
    archive segments and a sidecar of open-transaction frames) under a
    small MANIFEST.  Every payload file is digest-framed and staged
    temp-then-rename; the manifest rename is the single commit point —
    ext3sim journals a rename as one checksummed frame, so a crash at
    any disk tick leaves either the previous checkpoint (with all WAP
    logs intact) or the new one.  Covered WAP logs are deleted only
    after the manifest commits, and that truncation is idempotent so
    recovery can finish it after a crash.

    The module also owns the on-disk layout: the WAP logs are
    [/.pass/log.<seq>] and the checkpoint lives under {!dir}.  No other
    module builds these paths or parses these names. *)

type manifest = {
  m_gen : int;  (** checkpoint generation, 1-based *)
  m_watermark : int;  (** WAP logs with seq < watermark are covered *)
  m_db_name : string;  (** hot provdb image file name *)
  m_db_digest : string;  (** MD5 of the raw image payload *)
  m_archives : (string * string) list;
      (** cumulative cold-tier segments, (name, digest), oldest first *)
  m_pending : (string * string) option;
      (** sidecar of open-transaction frames, (name, digest) *)
  m_pending_txns : int list;
      (** transaction ids buffered at checkpoint time, sorted *)
}

val dir : string
(** ["/.waldo"]: the MANIFEST and every payload file it names. *)

val pass_dirname : string
(** [".pass"]: the hidden root-level directory holding the WAP logs. *)

val pass_dir : string
(** ["/.pass"]. *)

val path : string -> string
(** [path name] is [name] under {!dir}. *)

val log_path : string -> string
(** [log_path name] is the WAP log [name] under {!pass_dir}. *)

val log_name : int -> string
(** The WAP log name for a sequence number, ["log.<seq>"]. *)

val log_seq : string -> int option
(** Parse the sequence number out of a WAP log name; [None] for any
    other file. *)

val logs : Vfs.ops -> (Vfs.ino * (int * string) list, Vfs.errno) result
(** The WAP logs under {!pass_dir} as [(seq, name)], oldest first, with
    the directory's inode.  [ENOENT] when the volume has no {!pass_dir}. *)

val manifest_name : string
val image_name : gen:int -> string
val archive_name : gen:int -> string
val pending_name : gen:int -> string

val write_atomic :
  Vfs.ops -> path:string -> string -> (string, Vfs.errno) result
(** [write_atomic lower ~path payload] digest-frames [payload], stages
    it at [path ^ ".tmp"], renames it over [path], and returns the
    payload digest. *)

val read_verified :
  Vfs.ops -> path:string -> (string * string, Vfs.errno) result
(** Read a digest-framed payload back as [(payload, digest)].  Bad
    magic, a torn frame, or a digest mismatch all come back as [EIO]. *)

val write_manifest : Vfs.ops -> manifest -> (unit, Vfs.errno) result
(** Atomically publish [manifest] at [path manifest_name] — the commit
    point of a checkpoint. *)

val read_manifest : Vfs.ops -> (manifest option, Vfs.errno) result
(** [Ok None] when no checkpoint was ever committed; [EIO] on a corrupt
    manifest. *)

val truncate_covered : Vfs.ops -> watermark:int -> (int, Vfs.errno) result
(** Delete every WAP log under {!pass_dir} with seq < watermark; returns
    how many were deleted.  Idempotent; call only after the covering
    manifest is durable. *)
