(* Deterministic seeded fault injection.

   One plan = one PRNG stream.  Each injection site makes exactly one
   cumulative draw per operation (plus one more for a duration when the
   drawn kind has one), so the schedule is a pure function of (seed,
   operation sequence) — the property the determinism test pins down by
   comparing digests across runs.  The PRNG is the same LCG family the
   workloads use (Wk.rng): no dependence on Stdlib.Random, whose state
   would leak between tests. *)

type net_fault =
  | Drop_request
  | Drop_response
  | Delay_ns of int
  | Duplicate
  | Partition_ns of int
  | Server_restart_ns of int

type disk_fault = Read_error | Write_error | Torn_write | Corrupt_sector

type spec = {
  drop_request : int;
  drop_response : int;
  delay : int;
  delay_ns : int * int;
  duplicate : int;
  partition : int;
  partition_ns : int * int;
  server_restart : int;
  restart_ns : int * int;
  disk_read_error : int;
  disk_write_error : int;
  torn_write : int;
  corrupt_sector : int;
  net_after_op : int;
  net_until_op : int;
  disk_after_op : int;
  disk_until_op : int;
  until_ns : int;
}

let quiet =
  {
    drop_request = 0; drop_response = 0;
    delay = 0; delay_ns = (0, 0);
    duplicate = 0;
    partition = 0; partition_ns = (0, 0);
    server_restart = 0; restart_ns = (0, 0);
    disk_read_error = 0; disk_write_error = 0;
    torn_write = 0; corrupt_sector = 0;
    net_after_op = 0; net_until_op = max_int;
    disk_after_op = 0; disk_until_op = max_int;
    until_ns = max_int;
  }

(* Durations in ns: partitions and restarts are a few tens of ms — long
   enough to need several client retries, short enough that the capped
   backoff (~50 ms) rides them out. *)
let default_chaos =
  {
    quiet with
    drop_request = 15;
    drop_response = 15;
    delay = 40; delay_ns = (200_000, 2_000_000);
    duplicate = 15;
    partition = 3; partition_ns = (10_000_000, 40_000_000);
    server_restart = 2; restart_ns = (20_000_000, 50_000_000);
    disk_read_error = 5;
    disk_write_error = 5;
  }

type instruments = {
  total : Telemetry.counter;
  drop_request : Telemetry.counter;
  drop_response : Telemetry.counter;
  delay : Telemetry.counter;
  duplicate : Telemetry.counter;
  partition : Telemetry.counter;
  server_restart : Telemetry.counter;
  disk_read_error : Telemetry.counter;
  disk_write_error : Telemetry.counter;
  torn_write : Telemetry.counter;
  corrupt_sector : Telemetry.counter;
}

let instruments registry =
  let c name = Telemetry.counter ?registry ("fault.injected." ^ name) in
  {
    total = c "total";
    drop_request = c "drop_request";
    drop_response = c "drop_response";
    delay = c "delay";
    duplicate = c "duplicate";
    partition = c "partition";
    server_restart = c "server_restart";
    disk_read_error = c "disk_read_error";
    disk_write_error = c "disk_write_error";
    torn_write = c "torn_write";
    corrupt_sector = c "corrupt_sector";
  }

type plan = {
  seed : int;
  spec : spec;
  mutable state : int;
  mutable is_active : bool;
  mutable net_ops : int;
  mutable disk_ops : int;
  mutable partition_until : int;
  mutable events : string list; (* newest first *)
  i : instruments option;
}

let none =
  {
    seed = 0; spec = quiet; state = 0; is_active = false;
    net_ops = 0; disk_ops = 0; partition_until = 0;
    events = []; i = None;
  }

let plan ?registry ?(spec = default_chaos) ~seed () =
  {
    seed; spec;
    state = (seed * 2654435761) lor 1;
    is_active = true;
    net_ops = 0; disk_ops = 0; partition_until = 0;
    events = [];
    i = Some (instruments registry);
  }

let deactivate p =
  p.is_active <- false;
  p.partition_until <- 0

let draw p bound =
  p.state <- (p.state * 0x5DEECE66D) + 0xB;
  abs (p.state lsr 17) mod max 1 bound

let draw_range p (lo, hi) = if hi <= lo then lo else lo + draw p (hi - lo + 1)

let record p ~site ~op ~now kind counter =
  p.events <- Printf.sprintf "%s#%d@%d:%s" site op now kind :: p.events;
  match p.i with
  | None -> ()
  | Some i ->
      Telemetry.incr i.total;
      Telemetry.incr (counter i)

let net_fault_name = function
  | Drop_request -> "drop_request"
  | Drop_response -> "drop_response"
  | Delay_ns _ -> "delay"
  | Duplicate -> "duplicate"
  | Partition_ns _ -> "partition"
  | Server_restart_ns _ -> "server_restart"

let partitioned p ~now = p.is_active && now < p.partition_until

let next_net_fault p ~now =
  if not p.is_active then None
  else begin
    let op = p.net_ops in
    p.net_ops <- op + 1;
    let s = p.spec in
    if op < s.net_after_op || op >= s.net_until_op || now >= s.until_ns then None
    else begin
      (* one cumulative draw selects at most one (mutually exclusive)
         fault kind for this operation *)
      let roll = draw p 1000 in
      let fault =
        let t1 = s.drop_request in
        let t2 = t1 + s.drop_response in
        let t3 = t2 + s.delay in
        let t4 = t3 + s.duplicate in
        let t5 = t4 + s.partition in
        let t6 = t5 + s.server_restart in
        if roll < t1 then Some Drop_request
        else if roll < t2 then Some Drop_response
        else if roll < t3 then Some (Delay_ns (draw_range p s.delay_ns))
        else if roll < t4 then Some Duplicate
        else if roll < t5 then Some (Partition_ns (draw_range p s.partition_ns))
        else if roll < t6 then Some (Server_restart_ns (draw_range p s.restart_ns))
        else None
      in
      (match fault with
      | None -> ()
      | Some f ->
          (match f with
          | Partition_ns d | Server_restart_ns d ->
              p.partition_until <- max p.partition_until (now + d)
          | _ -> ());
          let counter =
            match f with
            | Drop_request -> fun (i : instruments) -> i.drop_request
            | Drop_response -> fun i -> i.drop_response
            | Delay_ns _ -> fun i -> i.delay
            | Duplicate -> fun i -> i.duplicate
            | Partition_ns _ -> fun i -> i.partition
            | Server_restart_ns _ -> fun i -> i.server_restart
          in
          record p ~site:"net" ~op ~now (net_fault_name f) counter);
      fault
    end
  end

let disk_fault_name = function
  | Read_error -> "read_error"
  | Write_error -> "write_error"
  | Torn_write -> "torn_write"
  | Corrupt_sector -> "corrupt_sector"

let next_disk_fault p ~now ~write =
  if not p.is_active then None
  else begin
    let op = p.disk_ops in
    p.disk_ops <- op + 1;
    let s = p.spec in
    if op < s.disk_after_op || op >= s.disk_until_op || now >= s.until_ns then None
    else begin
      let roll = draw p 1000 in
      let fault =
        if write then begin
          let t1 = s.disk_write_error in
          let t2 = t1 + s.torn_write in
          let t3 = t2 + s.corrupt_sector in
          if roll < t1 then Some Write_error
          else if roll < t2 then Some Torn_write
          else if roll < t3 then Some Corrupt_sector
          else None
        end
        else if roll < s.disk_read_error then Some Read_error
        else None
      in
      (match fault with
      | None -> ()
      | Some f ->
          let counter =
            match f with
            | Read_error -> fun (i : instruments) -> i.disk_read_error
            | Write_error -> fun i -> i.disk_write_error
            | Torn_write -> fun i -> i.torn_write
            | Corrupt_sector -> fun i -> i.corrupt_sector
          in
          record p ~site:"disk" ~op ~now (disk_fault_name f) counter);
      fault
    end
  end

let events p = List.rev p.events
let digest p = Digest.to_hex (Digest.string (String.concat "\n" (events p)))

(* Seeded crash-point selection for chaos sweeps: [count] distinct block
   write ticks in [1, writes], drawn from the same LCG family as the
   plans so a pinned seed replays the same sweep.  A chaos test measures
   how many writes an operation issues, then crashes a fresh rig at each
   returned tick via Simdisk's schedule_crash. *)
let crash_points ~seed ~writes ~count =
  let state = ref ((seed * 2654435761) lor 1) in
  let draw bound =
    state := (!state * 0x5DEECE66D) + 0xB;
    abs (!state lsr 17) mod max 1 bound
  in
  let target = min count (max 0 writes) in
  let rec go acc attempts =
    if List.length acc >= target || attempts = 0 then acc
    else
      let k = 1 + draw writes in
      go (if List.mem k acc then acc else k :: acc) (attempts - 1)
  in
  List.sort Int.compare (go [] (count * 64))
