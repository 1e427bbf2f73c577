(** Simulated block device.

    Tracks head position and charges seek, rotation and transfer time to
    the machine's {!Clock}, which is how the elapsed-time overheads of the
    paper's Table 2 emerge from provenance-log/data seek interference.
    Supports crash injection for testing the WAP recovery protocol. *)

val block_size : int
(** 4096 bytes. *)

type t

exception Crashed
(** Raised by any access to a crashed device. *)

exception Io_error
(** Raised when the fault plan injects a transient EIO on a block access
    (the file system above maps it to [Vfs.EIO]; a retry may succeed). *)

val create :
  ?registry:Telemetry.registry -> ?fault:Fault.plan -> clock:Clock.t -> unit -> t
(** A 20 000 000-block device (the block count scales seek distances)
    whose simulated elevator keeps 5 concurrent sequential streams cheap.
    [registry] receives the [disk.*] instruments (none registered when
    omitted).  [fault] (default {!Fault.none}) injects transient errors,
    torn writes and silent corruption per its seeded schedule. *)

val set_fault : t -> Fault.plan -> unit
(** Swap the fault plan on a live device. *)

val is_crashed : t -> bool

val schedule_crash : t -> after_writes:int -> unit
(** Fail permanently after [after_writes] more successful block writes. *)

val crash : t -> unit
(** Fail immediately. *)

val revive : t -> unit
(** Bring the device back up; data written before the crash persists. *)

(** {2 Blocks}

    Blocks are immutable [block_size]-byte strings, shared rather than
    copied: the device keeps the very string a write passes in and
    returns the very string it keeps.  So a caller may hold a block it
    wrote or read (a page cache does) for as long as it likes, and a later
    write to the same block number never changes it — the write replaces
    the stored string, it does not mutate it.  Only the [Torn_write] and
    [Corrupt_sector] faults store a damaged copy in place of the caller's
    string. *)

val read_block : t -> int -> string
(** The stored block itself (one shared zero block for a block never
    written), after charging the access. *)

val write_block : t -> int -> string -> unit
(** Store [data] as the block, keeping the string, after charging the
    access.  Raises [Invalid_argument] unless [data] is [block_size]
    bytes. *)

val stored_block : t -> int -> string
(** The block the medium holds, shared, with nothing charged: no time, no
    fault drawn, no counter moved.  This is the edge read of a
    read-modify-write, which the page cache above the device absorbs; a
    read the workload issues goes through {!read_block}. *)

val patch : string -> at:int -> string -> pos:int -> len:int -> string
(** [patch block ~at src ~pos ~len] is a new copy of [block] with [len]
    bytes of [src] from [pos] written at offset [at]: the one allocation a
    partial-block write makes. *)

val read_bytes : t -> off:int -> len:int -> string
(** Byte-granularity read spanning blocks, copied out of the stored
    blocks. *)

val write_bytes : t -> off:int -> string -> unit
(** Byte-granularity write spanning blocks.  A whole aligned block stores
    [data] itself (when it is exactly one block) or one slice of it; a
    partial block at either edge is merged into a new copy of
    {!stored_block}. *)
