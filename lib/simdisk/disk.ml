(* Simulated block device with a positional cost model and crash injection.

   The cost model is what lets the Table 2 elapsed-time overheads emerge
   mechanically rather than by fiat: the paper attributes the Mercurial and
   Linux-compile overheads to provenance-log writes interfering with the
   workload's own I/O ("leading to extra seeks").  We therefore track the
   head position; an access that is not sequential with the previous one
   pays a seek (proportional to distance, capped) plus rotational latency,
   then a per-byte transfer cost.  The geometry loosely follows the paper's
   7200rpm WD800JB: ~8.9 ms average seek, ~4.2 ms half-rotation, ~60 MB/s
   media rate.

   Crash injection: [schedule_crash d ~after_writes:n] makes the device
   fail permanently after [n] more successful block writes.  Data written
   before the crash persists across [revive]; everything after is lost.
   Lasagna's WAP recovery is tested against exactly this behaviour. *)

let block_size = 4096

(* Registry-backed instruments. *)
type instruments = {
  reads : Telemetry.counter;
  writes : Telemetry.counter;
  bytes_read : Telemetry.counter;
  bytes_written : Telemetry.counter;
  seeks : Telemetry.counter;
  seek_ns : Telemetry.counter;
  transfer_ns : Telemetry.counter;
}

let instruments registry =
  let c name = Telemetry.counter ?registry ("disk." ^ name) in
  {
    reads = c "reads";
    writes = c "writes";
    bytes_read = c "bytes_read";
    bytes_written = c "bytes_written";
    seeks = c "seeks";
    seek_ns = c "seek_ns";
    transfer_ns = c "transfer_ns";
  }

exception Crashed
exception Io_error

(* One sequential stream the elevator is maintaining: its current head
   position and the logical time of its last use (for LRU eviction). *)
type stream = { mutable s_head : int; mutable s_used : int }

(* Device geometry: the block count scales seek distances, and
   [stream_slots] concurrent sequential streams stay cheap. *)
let total_blocks = 20_000_000
let stream_slots = 5

type t = {
  clock : Clock.t;
  blocks : (int, string) Hashtbl.t;
  streams : stream array;
  mutable use_counter : int;
  mutable crashed : bool;
  mutable crash_after_writes : int option;
  mutable fault : Fault.plan;
  i : instruments;
  (* cost knobs, ns *)
  full_seek_ns : int;
  min_seek_ns : int;
  rotation_ns : int;
  settle_ns : int;
  per_block_transfer_ns : int;
}

let create ?registry ?(fault = Fault.none) ~clock () =
  {
    clock;
    blocks = Hashtbl.create 65536;
    streams = Array.init stream_slots (fun _ -> { s_head = -1; s_used = 0 });
    use_counter = 0;
    crashed = false;
    crash_after_writes = None;
    fault;
    i = instruments registry;
    full_seek_ns = Clock.ns_of_ms 17;      (* full-stroke seek *)
    min_seek_ns = Clock.ns_of_us 800;      (* track-to-track *)
    rotation_ns = Clock.ns_of_ms 4;        (* ~half rotation at 7200rpm *)
    settle_ns = Clock.ns_of_us 350;        (* near-stream resume, elevator-amortized *)
    per_block_transfer_ns = Clock.ns_of_us 65; (* 4 KB at ~60 MB/s *)
  }

let is_crashed t = t.crashed
let set_fault t plan = t.fault <- plan

let schedule_crash t ~after_writes =
  if after_writes < 0 then invalid_arg "Disk.schedule_crash";
  t.crash_after_writes <- Some after_writes

let crash t = t.crashed <- true

let revive t =
  t.crashed <- false;
  t.crash_after_writes <- None

let check_alive t = if t.crashed then raise Crashed

(* The head-movement model.  An I/O scheduler (elevator) keeps a handful
   of sequential streams going; an access that continues a stream is free,
   one that lands near a live stream pays only a settle cost, and one that
   opens a new region pays a distance-dependent seek plus rotational
   latency — evicting the least-recently-used stream.  Provenance-log
   traffic added to a workload that already uses all the stream slots is
   exactly what produces the paper's "provenance writes interfere with the
   workload's writes, leading to extra seeks". *)
let stream_near_window = 256 (* blocks: 1 MB *)

let charge_position t blk =
  t.use_counter <- t.use_counter + 1;
  let best = ref None in
  Array.iter
    (fun s ->
      if s.s_head >= 0 then begin
        let d = abs (blk - s.s_head) in
        match !best with
        | Some (_, bd) when bd <= d -> ()
        | _ -> if d <= stream_near_window then best := Some (s, d)
      end)
    t.streams;
  let charge_transfer = ref true in
  (match !best with
  | Some (s, d) when d <= 1 ->
      (* a rewrite of the hot tail block is absorbed by the page cache and
         written to the medium once, so it transfers for free; advancing
         to a fresh block pays one block of transfer *)
      if blk = s.s_head - 1 then charge_transfer := false;
      s.s_head <- max s.s_head (blk + 1);
      s.s_used <- t.use_counter
  | Some (s, _) ->
      (* near a live stream: elevator picks it up within the same sweep *)
      Telemetry.add t.i.seek_ns t.settle_ns;
      Clock.advance t.clock t.settle_ns;
      s.s_head <- blk + 1;
      s.s_used <- t.use_counter
  | None ->
      (* cold region: real seek; evict the least-recently-used stream *)
      Telemetry.incr t.i.seeks;
      let lru = ref t.streams.(0) in
      Array.iter (fun s -> if s.s_used < !lru.s_used then lru := s) t.streams;
      let origin = if !lru.s_head >= 0 then !lru.s_head else 0 in
      let distance = abs (blk - origin) in
      let frac = float_of_int distance /. float_of_int total_blocks in
      (* seek time grows roughly with the square root of the distance *)
      let seek =
        t.min_seek_ns
        + int_of_float (float_of_int (t.full_seek_ns - t.min_seek_ns) *. sqrt frac)
      in
      let cost = seek + t.rotation_ns in
      Telemetry.add t.i.seek_ns cost;
      Clock.advance t.clock cost;
      !lru.s_head <- blk + 1;
      !lru.s_used <- t.use_counter);
  if !charge_transfer then begin
    Telemetry.add t.i.transfer_ns t.per_block_transfer_ns;
    Clock.advance t.clock t.per_block_transfer_ns
  end

let check_block blk =
  if blk < 0 || blk >= total_blocks then invalid_arg "Disk: block out of range"

(* Blocks are immutable strings shared with the callers that wrote or
   read them; a hole reads as this one shared zero block. *)
let zero_block = String.make block_size '\000'

let stored_block t blk = Option.value (Hashtbl.find_opt t.blocks blk) ~default:zero_block

let patch block ~at src ~pos ~len =
  let b = Bytes.of_string block in
  Bytes.blit_string src pos b at len;
  Bytes.unsafe_to_string b

let read_block t blk =
  check_alive t;
  check_block blk;
  (match Fault.next_disk_fault t.fault ~now:(Clock.now t.clock) ~write:false with
  | Some Fault.Read_error ->
      (* the failed request still costs a rotation before the drive
         reports the error *)
      Clock.advance t.clock t.rotation_ns;
      raise Io_error
  | Some _ | None -> ());
  charge_position t blk;
  Telemetry.incr t.i.reads;
  Telemetry.add t.i.bytes_read block_size;
  stored_block t blk

let write_block t blk data =
  check_alive t;
  check_block blk;
  if String.length data <> block_size then invalid_arg "Disk.write_block: bad size";
  (match t.crash_after_writes with
  | Some 0 ->
      t.crashed <- true;
      raise Crashed
  | Some n -> t.crash_after_writes <- Some (n - 1)
  | None -> ());
  let fault = Fault.next_disk_fault t.fault ~now:(Clock.now t.clock) ~write:true in
  (match fault with
  | Some Fault.Write_error ->
      Clock.advance t.clock t.rotation_ns;
      raise Io_error
  | Some _ | None -> ());
  charge_position t blk;
  Telemetry.incr t.i.writes;
  Telemetry.add t.i.bytes_written block_size;
  match fault with
  | Some Fault.Torn_write ->
      (* only a prefix reaches the medium, yet the drive reports success
         — the latent fault WAP digests exist to catch *)
      Hashtbl.replace t.blocks blk
        (patch (stored_block t blk) ~at:0 data ~pos:0 ~len:(block_size / 2))
  | Some Fault.Corrupt_sector ->
      let b = Bytes.of_string data in
      let pos = block_size / 2 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
      Hashtbl.replace t.blocks blk (Bytes.unsafe_to_string b)
  | Some Fault.Write_error | Some Fault.Read_error | None -> Hashtbl.replace t.blocks blk data

(* Convenience used by the file systems: read/write [len] bytes at an
   arbitrary byte offset, spanning blocks as needed. *)
let read_bytes t ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Disk.read_bytes";
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let blk = abs / block_size and inblk = abs mod block_size in
    let n = min (block_size - inblk) (len - !pos) in
    Bytes.blit_string (read_block t blk) inblk out !pos n;
    pos := !pos + n
  done;
  Bytes.unsafe_to_string out

let write_bytes t ~off data =
  if off < 0 then invalid_arg "Disk.write_bytes";
  let len = String.length data in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let blk = abs / block_size and inblk = abs mod block_size in
    let n = min (block_size - inblk) (len - !pos) in
    let b =
      (* a partial edge starts from the block the medium holds; like the
         page cache it models, that edge read costs nothing *)
      if n < block_size then patch (stored_block t blk) ~at:inblk data ~pos:!pos ~len:n
      else if len = block_size then data
      else String.sub data !pos block_size
    in
    write_block t blk b;
    pos := !pos + n
  done
