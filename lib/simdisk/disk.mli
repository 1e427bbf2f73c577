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

    Blocks are [block_size]-byte strings, shared rather than copied
    wherever a caller can see them.  Each stored block is either
    {e shared} or {e owned}:

    - a shared block is a string a caller passed to {!write_block}, or one
      {!read_block} or {!stored_block} returned.  The device never mutates
      it again, so a caller may hold it (a page cache does) for as long as
      it likes: a later write to the same block number replaces it;
    - an owned block holds bytes of a merge the device made itself and
      has handed to no one.  A partial write ({!write_partial}, or an edge
      of {!write_bytes}) blits into it in place.

    A partial write to a shared block (or a hole) stores an owned copy;
    handing an owned block out makes it shared.  A write that draws a
    [Torn_write] or [Corrupt_sector] fault stores a damaged copy the
    device built. *)

val read_block : t -> int -> string
(** The stored block itself (one shared zero block for a block never
    written), after charging the access. *)

val write_block : t -> int -> string -> unit
(** Store [data] as the block, keeping the string, after charging the
    access.  Raises [Invalid_argument] unless [data] is [block_size]
    bytes. *)

val write_partial : t -> int -> at:int -> string -> pos:int -> len:int -> unit
(** [write_partial t blk ~at src ~pos ~len] writes [len] bytes of [src]
    from [pos] at offset [at] of block [blk], keeping the rest of the
    block the medium holds.  It is charged, counted and fault-drawn
    exactly as a {!write_block} of the merged block; only the bytes it
    copies differ (see Blocks).  Raises [Invalid_argument] when the range
    leaves the block or [src]. *)

val stored_block : t -> int -> string
(** The block the medium holds, shared, with nothing charged: no time, no
    fault drawn, no counter moved.  This is the edge read of a
    read-modify-write, which the page cache above the device absorbs; a
    read the workload issues goes through {!read_block}. *)

val patch : string -> at:int -> string -> pos:int -> len:int -> string
(** [patch block ~at src ~pos ~len] is a new copy of [block] with [len]
    bytes of [src] from [pos] written at offset [at]. *)

val read_into : t -> off:int -> len:int -> bytes -> unit
(** Byte-granularity read spanning blocks into the first [len] bytes of
    the buffer, one {!read_block} per block touched.  Raises
    [Invalid_argument] when [len] exceeds the buffer. *)

val read_bytes : t -> off:int -> len:int -> string
(** {!read_into} a fresh string. *)

val write_bytes : t -> off:int -> string -> unit
(** Byte-granularity write spanning blocks.  A whole aligned block stores
    [data] itself (when it is exactly one block) or one slice of it; a
    partial block at either edge is a {!write_partial}. *)
