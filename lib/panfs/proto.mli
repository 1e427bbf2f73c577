(** The PA-NFS protocol (paper, Section 6.1).

    An NFSv4-flavoured operation set extended with the six DPAPI
    operations: [OP_PASSREAD], [OP_PASSWRITE], [OP_BEGINTXN],
    [OP_PASSPROV], [OP_PASSMKOBJ], [OP_PASSREVIVEOBJ], [OP_PASSSYNC].
    When provenance plus data exceed the 64 KB client block size, the
    client encapsulates the write in a transaction so the server's Waldo
    can identify orphaned provenance after a client crash.

    Messages cross the simulated link as values, charged at the length
    of their wire encoding: the codecs define the format, and exact
    arithmetic twins of them ({!req_size}, {!resp_size}, {!call_size})
    give the length without encoding. *)

module Dpapi = Pass_core.Dpapi
module Pnode = Pass_core.Pnode

type batch_item = {
  bi_pnode : Pnode.t;
  bi_off : int;
  bi_data : string option;
  bi_bundle : Dpapi.bundle;
}
(** One provenance write riding in an [OP_PASSBATCH] envelope — the same
    fields as a non-transactional [OP_PASSWRITE]. *)

type req =
  | Lookup of { dir : Vfs.ino; name : string }
  | Create of { dir : Vfs.ino; name : string; kind : Vfs.kind }
  | Remove of { dir : Vfs.ino; name : string }
  | Rename of { src_dir : Vfs.ino; src_name : string; dst_dir : Vfs.ino; dst_name : string }
  | Getattr of { ino : Vfs.ino }
  | Readdir of { ino : Vfs.ino }
  | Read of { ino : Vfs.ino; off : int; len : int }
  | Write of { ino : Vfs.ino; off : int; data : string }
  | Truncate of { ino : Vfs.ino; size : int }
  | Commit of { ino : Vfs.ino }
  | Op_passread of { pnode : Pnode.t; off : int; len : int }
  | Op_passwrite of {
      pnode : Pnode.t;
      off : int;
      data : string option;
      bundle : Dpapi.bundle;
      txn : int option;
    }
  | Op_begintxn
  | Op_passprov of { txn : int; chunk : Dpapi.bundle }
  | Op_passmkobj
  | Op_passreviveobj of { pnode : Pnode.t; version : int }
  | Op_passsync of { pnode : Pnode.t }
  | Op_pnode of { ino : Vfs.ino }
  | Op_passbatch of { writes : batch_item list }
      (** Several independent provenance writes piggybacked into one call
          envelope.  The server applies them in order and the whole batch
          shares one duplicate-request-cache entry, so a replayed
          envelope replays the cached replies instead of re-applying any
          item. *)

type resp =
  | R_err of Vfs.errno
  | R_ino of Vfs.ino
  | R_ok
  | R_attr of Vfs.stat
  | R_names of string list
  | R_data of string
  | R_passread of { data : string; pnode : Pnode.t; version : int }
  | R_version of int
  | R_txn of int
  | R_handle of { pnode : Pnode.t }
  | R_batch of resp list
      (** One reply per applied [Op_passbatch] item, in order; the server
          stops at the first error, so the last element may be an [R_err]
          and items beyond it were not applied. *)

val block_limit : int
(** 64 KB: the client block size that triggers transactions. *)

val encode_req : Buffer.t -> req -> unit
val decode_req : string -> int ref -> req
val encode_resp : Buffer.t -> resp -> unit
val decode_resp : string -> int ref -> resp
(** Wire codecs; decoders raise {!Wire.Corrupt} on malformed input.  They
    define the wire format and are the oracle the size twins below are
    tested against; the simulated transport itself never runs them —
    messages cross {!rpc} as values. *)

val req_size : req -> int
val resp_size : resp -> int
(** Arithmetic twins of {!encode_req} and {!encode_resp}: exactly the
    number of bytes each appends, computed without encoding. *)

(** {1 Call envelope}

    Client id + per-client sequence number: the key of the server's
    NFSv4-style duplicate-request cache.  Retransmissions reuse the
    sequence number so the server replays rather than re-executes.  The
    envelope also propagates the client's pvtrace context ([c_trace],
    [c_span], both 0 when untraced) so server-side spans parent onto the
    originating client RPC span; being part of the one-per-logical-call
    envelope, the context survives retries and duplicate deliveries. *)

type call = {
  c_client : int;
  c_seq : int;
  c_trace : int;
  c_span : int;
  c_req : req;
}

val encode_call : Buffer.t -> call -> unit
val decode_call : string -> int ref -> call

val call_size : call -> int
(** Arithmetic twin of {!encode_call}: [32 + req_size c.c_req]. *)

val req_name : req -> string
(** Span-name component for tracing: "rpc.lookup", "rpc.passwrite", ... *)

type net = {
  clock : Simdisk.Clock.t;
  fault : Fault.plan;
  mutable next_client : int;
  mutable messages : int;
  mutable bytes : int;
}

val net : ?fault:Fault.plan -> Simdisk.Clock.t -> net
(** A simulated LAN link with fixed 2009-era gigabit constants: every
    datagram costs 150 us of one-way latency plus 8 ns per byte, and a
    client waits 10 ms for a reply before [`Timeout].  [fault] (default
    {!Fault.none}) injects drops, delays, duplicates, partitions and
    restarts per its schedule. *)

val fresh_client : net -> int
(** Allocate a client id on this link (per-net, so same-seed runs are
    reproducible). *)

val rpc : net -> (call -> resp) -> call -> (resp, [ `Timeout ]) result
(** Synchronous RPC: charges each datagram's latency plus transfer of its
    encoded length ({!call_size}, {!resp_size}) to the shared clock
    ([messages]/[bytes] count every transmitted copy, including dropped
    and duplicated ones), and hands the call value itself to the handler,
    once per delivery — a duplicated or retransmitted datagram redelivers
    the same immutable value.  Returns [`Timeout] when the fault plan
    loses either datagram or the link is partitioned; the caller retries
    with the same sequence number. *)
