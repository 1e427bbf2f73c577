(** Lasagna crash recovery.

    Scans the WAP logs left on a (re-mounted) lower file system, verifies
    the data digests of the last in-flight write per object, and reports
    exactly the data whose provenance is inconsistent — the data that was
    being written to disk at the time of the crash (paper, Section 5.6). *)

type inconsistency = {
  i_pnode : Pass_core.Pnode.t;
  i_ino : Vfs.ino option;
  i_off : int;
  i_len : int;
  reason : string;
}

type log_detail = {
  l_name : string;
  l_skipped : bool;  (** covered by the checkpoint watermark, not read *)
  l_frames : int;  (** well-formed frames scanned (0 when skipped) *)
}

type report = {
  logs_scanned : int;
  logs_skipped : int;
      (** logs wholly covered by a durable checkpoint, skipped unread *)
  watermark : int option;
      (** the checkpoint MANIFEST's watermark, when one exists *)
  frames_ok : int;
  torn_bytes : int;
  data_checked : int;
  inconsistent : inconsistency list;
  files : int;  (** Map frames scanned *)
  virtuals : int;  (** Mkobj frames scanned *)
  open_txns : int list;
      (** PA-NFS transactions with a BEGINTXN but no ENDTXN in the logs:
          the orphans Waldo will discard at finalize. *)
  log_details : log_detail list;  (** per log, in sequence order *)
}

val scan :
  ?registry:Telemetry.registry ->
  Vfs.ops ->
  (report, Vfs.errno) result
(** [scan lower] performs recovery over the [.pass] logs on [lower] and
    publishes the outcome as [wap.recovery.*] counters into [registry]
    (none registered when omitted).  When a checkpoint MANIFEST exists
    under {!Checkpoint.dir} the scan is bounded: logs
    below its watermark are skipped unread, and transactions the
    checkpoint carried as in-flight seed the open-transaction tracking
    so an ENDTXN in the suffix still closes them.  Transient read
    errors are retried ([wap.recovery.io_retries]); silent corruption
    caught by a WAP data digest is reported in [inconsistent], never
    raised.  [ENOENT] when [lower] has no {!Checkpoint.pass_dir}. *)

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Telemetry.Json.t
(** The report as a telemetry JSON tree ([passctl recover --json]). *)
