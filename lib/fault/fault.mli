(** Deterministic seeded fault injection.

    A {!plan} is a seeded PRNG schedule of faults for the simulated
    network and disk.  Layers ask the plan at each operation whether a
    fault fires ({!next_net_fault}, {!next_disk_fault}); the plan draws
    from its own PRNG, so the same seed over the same operation sequence
    yields a byte-identical fault schedule ({!digest}).  Faults can be
    windowed by operation count ([*_after_op]/[*_until_op]) or by
    simulated-clock time ([until_ns]); {!deactivate} ends all injection,
    which is how chaos tests model "faults clear" before asserting
    convergence.

    The plan depends only on {!Telemetry} (for the [fault.injected.*]
    counters), so both [simdisk] and the PA-NFS transport can use it
    without a dependency cycle; callers pass the simulated time in as
    [now]. *)

type net_fault =
  | Drop_request  (** the request datagram is lost *)
  | Drop_response  (** the server executes, but the reply is lost *)
  | Delay_ns of int  (** the round trip takes this much longer *)
  | Duplicate  (** the request datagram is delivered twice *)
  | Partition_ns of int  (** the server is unreachable for this long *)
  | Server_restart_ns of int
      (** the server process restarts: unreachable for this long (its
          duplicate-request cache persists, as NFSv4.1's reply cache
          does) *)

type disk_fault =
  | Read_error  (** transient EIO on a block read *)
  | Write_error  (** transient EIO on a block write *)
  | Torn_write  (** only a prefix of the block reaches the medium *)
  | Corrupt_sector  (** the block is silently corrupted in place *)

(** Fault probabilities in per-mille (0–1000) per operation, plus
    duration ranges and injection windows. *)
type spec = {
  drop_request : int;
  drop_response : int;
  delay : int;
  delay_ns : int * int;  (** inclusive range a [Delay_ns] is drawn from *)
  duplicate : int;
  partition : int;
  partition_ns : int * int;
  server_restart : int;
  restart_ns : int * int;
  disk_read_error : int;
  disk_write_error : int;
  torn_write : int;
  corrupt_sector : int;
  net_after_op : int;  (** no net faults before this many net ops *)
  net_until_op : int;  (** no net faults from this op index on *)
  disk_after_op : int;
  disk_until_op : int;
  until_ns : int;  (** no faults at or past this simulated time *)
}

val quiet : spec
(** All probabilities zero — a plan that never fires. *)

val default_chaos : spec
(** A moderate mixed profile: a few percent of drops, duplicates and
    delays, occasional partitions and restarts, sub-percent transient
    disk errors; no silent corruption (test that separately — it is
    detected, not masked). *)

type plan

val none : plan
(** The permanently-disabled plan; the hooks' fast path.  Threading
    [none] must cost one branch and never draw from any PRNG. *)

val plan : ?registry:Telemetry.registry -> ?spec:spec -> seed:int -> unit -> plan
(** [plan ~seed ()] is a fresh schedule (default spec {!default_chaos}).
    [registry] receives the [fault.injected.*] counters (none registered when
    omitted). *)

val deactivate : plan -> unit
(** Stop injecting and clear any open partition window: the fault-free
    epilogue chaos tests converge under. *)

val next_net_fault : plan -> now:int -> net_fault option
(** Called once per RPC send.  Advances the op counter, draws, records
    the event.  A [Partition_ns]/[Server_restart_ns] result also opens
    the partition window that {!partitioned} reports. *)

val partitioned : plan -> now:int -> bool
(** Whether a previously drawn partition window is still open at [now].
    Consumes no randomness (retries during a partition must not perturb
    the schedule). *)

val next_disk_fault : plan -> now:int -> write:bool -> disk_fault option
(** Called once per block I/O; [write] selects the applicable kinds. *)

val digest : plan -> string
(** MD5 over {!events} — two runs with the same seed and operation
    sequence produce equal digests (the determinism acceptance check). *)

val crash_points : seed:int -> writes:int -> count:int -> int list
(** [crash_points ~seed ~writes ~count] draws up to [count] distinct
    block-write ticks in [[1, writes]], sorted ascending — the
    [after_writes] values a chaos sweep feeds to the simulated disk's
    crash scheduling.  Same seed, same sweep. *)
