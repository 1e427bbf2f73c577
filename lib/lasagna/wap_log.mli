(** The write-ahead-provenance (WAP) log format.

    All provenance records reach the disk before the data they describe
    (paper, Section 5.6).  Frames are checksummed so recovery stops
    cleanly at the first torn frame after a crash, and data-carrying
    frames embed an MD5 of the data so recovery can identify exactly the
    data that was in flight. *)

type data_id = { d_pnode : Pass_core.Pnode.t; d_off : int; d_len : int; d_md5 : string }

type frame =
  | Map of { pnode : Pass_core.Pnode.t; ino : Vfs.ino; name : string }
      (** binds a file's pnode to its lower-layer inode *)
  | Mkobj of { pnode : Pass_core.Pnode.t }
      (** announces a virtual object assigned to this volume *)
  | Bundle of { txn : int option; bundle : Pass_core.Dpapi.bundle; data : data_id option }
      (** a DPAPI bundle; [data] identifies the write it describes;
          [txn] is set when it arrived inside a PA-NFS transaction *)

val encode_frame_into : Buffer.t -> frame -> unit
(** [encode_frame_into out fr] appends the encoding of [fr] to [out] —
    the hot path behind Lasagna's group commit.  The payload is built in
    one shared scratch buffer and copied out once. *)

val fold : string -> init:'a -> ('a -> frame -> 'a) -> 'a * int
(** [fold image ~init f] folds [f] over the well-formed frame prefix of
    [image], oldest frame first, and returns the result with the number
    of bytes that prefix occupies.  Each frame is checksummed and decoded
    in place: no frame list is built and no payload is copied.  The
    prefix ends at the first torn frame, bad checksum, undecodable
    payload, or payload whose decode runs past the frame's length. *)

val ends_txn : Pass_core.Dpapi.bundle -> bool
(** Whether a transactional bundle carries the ENDTXN record that closes
    its PA-NFS transaction — the one rule Waldo and recovery share. *)

val md5 : string -> string
(** Digest used in {!data_id}. *)
