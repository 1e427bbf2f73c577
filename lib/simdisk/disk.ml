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

(* A stored block.  A shared one ([owned = false]) is a caller's string or
   one the device has handed out, and is never mutated again.  An owned
   one holds bytes the device merged itself and has handed to no one, so
   a partial write may blit into it in place. *)
type slot = { mutable data : string; mutable owned : bool }

type t = {
  clock : Clock.t;
  blocks : (int, slot) Hashtbl.t;
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
  (* the nearest live stream within the window, the first one on a tie *)
  let best = ref (-1) and best_d = ref max_int in
  for k = 0 to stream_slots - 1 do
    let h = t.streams.(k).s_head in
    if h >= 0 then begin
      let d = abs (blk - h) in
      if d < !best_d && d <= stream_near_window then begin
        best := k;
        best_d := d
      end
    end
  done;
  let charge_transfer = ref true in
  if !best >= 0 && !best_d <= 1 then begin
    (* a rewrite of the hot tail block is absorbed by the page cache and
       written to the medium once, so it transfers for free; advancing
       to a fresh block pays one block of transfer *)
    let s = t.streams.(!best) in
    if blk = s.s_head - 1 then charge_transfer := false;
    s.s_head <- max s.s_head (blk + 1);
    s.s_used <- t.use_counter
  end
  else if !best >= 0 then begin
    (* near a live stream: elevator picks it up within the same sweep *)
    let s = t.streams.(!best) in
    Telemetry.add t.i.seek_ns t.settle_ns;
    Clock.advance t.clock t.settle_ns;
    s.s_head <- blk + 1;
    s.s_used <- t.use_counter
  end
  else begin
    (* cold region: real seek; evict the least-recently-used stream *)
    Telemetry.incr t.i.seeks;
    let lru = ref 0 in
    for k = 1 to stream_slots - 1 do
      if t.streams.(k).s_used < t.streams.(!lru).s_used then lru := k
    done;
    let lru = t.streams.(!lru) in
    let origin = if lru.s_head >= 0 then lru.s_head else 0 in
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
    lru.s_head <- blk + 1;
    lru.s_used <- t.use_counter
  end;
  if !charge_transfer then begin
    Telemetry.add t.i.transfer_ns t.per_block_transfer_ns;
    Clock.advance t.clock t.per_block_transfer_ns
  end

let check_block blk =
  if blk < 0 || blk >= total_blocks then invalid_arg "Disk: block out of range"

(* A hole reads as this one shared zero block. *)
let zero_block = String.make block_size '\000'

(* The medium's bytes, without handing them out. *)
let peek t blk =
  match Hashtbl.find t.blocks blk with s -> s.data | exception Not_found -> zero_block

(* The block, handed out: from now on it is shared. *)
let stored_block t blk =
  match Hashtbl.find t.blocks blk with
  | s ->
      s.owned <- false;
      s.data
  | exception Not_found -> zero_block

let store t blk data ~owned =
  match Hashtbl.find t.blocks blk with
  | s ->
      s.data <- data;
      s.owned <- owned
  | exception Not_found -> Hashtbl.add t.blocks blk { data; owned }

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

(* The admission every block write takes, in this order and before any
   byte changes: liveness, range, the caller's arguments ([args_ok], else
   [Invalid_argument fn]), the crash countdown, the fault draw, the head
   charge and the counters.  Returns the fault drawn. *)
let admit_write t blk ~args_ok ~fn =
  check_alive t;
  check_block blk;
  if not args_ok then invalid_arg fn;
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
  fault

(* Store a new image of the block as the medium receives it under
   [fault]: [data] itself, or a copy the device builds when only a torn
   prefix lands (the drive still reports success: the latent fault WAP
   digests exist to catch) or the sector is silently corrupted. *)
let store_faulted t blk data fault ~owned =
  match fault with
  | Some Fault.Torn_write ->
      store t blk (patch (peek t blk) ~at:0 data ~pos:0 ~len:(block_size / 2)) ~owned:true
  | Some Fault.Corrupt_sector ->
      let b = Bytes.of_string data in
      let pos = block_size / 2 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
      store t blk (Bytes.unsafe_to_string b) ~owned:true
  | Some (Fault.Write_error | Fault.Read_error) | None -> store t blk data ~owned

let write_block t blk data =
  let fault =
    admit_write t blk ~args_ok:(String.length data = block_size) ~fn:"Disk.write_block: bad size"
  in
  store_faulted t blk data fault ~owned:false

let write_partial t blk ~at src ~pos ~len =
  let args_ok =
    at >= 0 && pos >= 0 && len >= 0 && at + len <= block_size
    && pos + len <= String.length src
  in
  match admit_write t blk ~args_ok ~fn:"Disk.write_partial" with
  | Some (Fault.Write_error | Fault.Read_error) | None -> (
      match Hashtbl.find t.blocks blk with
      | s when s.owned -> Bytes.blit_string src pos (Bytes.unsafe_of_string s.data) at len
      | s ->
          s.data <- patch s.data ~at src ~pos ~len;
          s.owned <- true
      | exception Not_found ->
          Hashtbl.add t.blocks blk { data = patch zero_block ~at src ~pos ~len; owned = true })
  | fault ->
      (* a damaged write takes the merge-then-store path of a whole block *)
      store_faulted t blk (patch (peek t blk) ~at src ~pos ~len) fault ~owned:true

(* Convenience used by the file systems: read/write bytes at an arbitrary
   byte offset, spanning blocks as needed. *)
let read_into t ~off ~len dst =
  if off < 0 || len < 0 || len > Bytes.length dst then invalid_arg "Disk.read_into";
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let blk = abs / block_size and inblk = abs mod block_size in
    let n = min (block_size - inblk) (len - !pos) in
    Bytes.blit_string (read_block t blk) inblk dst !pos n;
    pos := !pos + n
  done

let read_bytes t ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Disk.read_bytes";
  let out = Bytes.create len in
  read_into t ~off ~len out;
  Bytes.unsafe_to_string out

let write_bytes t ~off data =
  if off < 0 then invalid_arg "Disk.write_bytes";
  let len = String.length data in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let blk = abs / block_size and inblk = abs mod block_size in
    let n = min (block_size - inblk) (len - !pos) in
    (* a partial edge merges into the block the medium holds; like the
       page cache it models, that edge read costs nothing *)
    if n < block_size then write_partial t blk ~at:inblk data ~pos:!pos ~len:n
    else write_block t blk (if len = block_size then data else String.sub data !pos block_size);
    pos := !pos + n
  done
