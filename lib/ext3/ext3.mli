(** ext3sim: the baseline journaling file system.

    Stands in for the paper's ext3-in-ordered-mode baseline (Section 7):
    metadata changes are journalled in a dedicated disk region, file data
    is written to its home location before the metadata that makes it
    reachable, and mounting replays the journal.  Lasagna stacks on top of
    this (or any other {!Vfs.ops}). *)

type t

val format : ?jblocks:int -> Simdisk.Disk.t -> t
(** Create a fresh, empty file system on [disk].  [jblocks] sizes the
    journal region (default 16384 blocks = 64 MB); the journal compacts
    into a snapshot frame when it nears the end. *)

val mount : ?jblocks:int -> Simdisk.Disk.t -> t
(** Rebuild the file system state by replaying the on-disk journal —
    used after a simulated crash.  [jblocks] must match the value the
    file system was formatted with. *)

val ops : t -> Vfs.ops
(** The VFS face. *)

val root_ino : Vfs.ino

val set_cache_capacity : t -> int -> unit
(** Resize the simulated page cache (in 4 KB blocks).  The System wiring
    halves it when Lasagna stacks on top (double buffering, Section 7). *)

val cache_stats : t -> int * int
(** (hits, misses). *)

val journal_bytes_written : t -> int

val live_bytes : t -> int
(** Sum of regular-file sizes currently reachable. *)
