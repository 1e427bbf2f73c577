(* Host-side readings for the benchmark, taken through bechamel's
   measures the way bench/main.ml takes them: the monotonic clock in
   nanoseconds and the runtime's allocation and collection counters.
   These are host costs of running the simulation, never simulated time. *)

open Bechamel.Toolkit

let now_ns () = int_of_float (Monotonic_clock.get ())

(* Words allocated so far: minor allocations plus direct major
   allocations, minus the minor words later promoted (counted twice
   otherwise). *)
let words () = Minor_allocated.get () +. Major_allocated.get () -. Promoted.get ()

type gc = { minor : float; major : float; promoted : float }

let gc () =
  { minor = Minor_collection.get (); major = Major_collection.get ();
    promoted = Promoted.get () }

let gc_delta a b =
  { minor = b.minor -. a.minor; major = b.major -. a.major;
    promoted = b.promoted -. a.promoted }

(* Reading [words] itself allocates; the cost is a constant, measured
   once and subtracted so per-op figures count the library's words only. *)
let words_overhead =
  lazy
    (let a = words () in
     let b = words () in
     b -. a)

let ms_of_ns ns = float_of_int ns /. 1e6

(* --- host speed ----------------------------------------------------------- *)

(* On a shared host the speed of the core and of the memory system drift
   by tens of percent over seconds, and the simulator's ops -- hash
   tables, string copies, pointer chasing, scans -- drift with them.  The
   probe does the same three kinds of work in roughly equal time, none of
   it cacheable across calls and none of it the library's: a chain of
   dependent reads along one random cycle through 32 MB (Sattolo's
   shuffle; the walk resumes where it stopped), independent random reads
   of the same table that overlap in flight, and a core-bound mixing loop
   over 32 KB.  The benchmark runs it between ops and scales host timings
   by [probe_nominal_ns / probe]. *)
let probe_words = 1 lsl 22
let probe_nominal_ns = 600_000

let probe_cycle =
  lazy
    (let t = Array.init probe_words Fun.id in
     let s = ref 1 in
     for i = probe_words - 1 downto 1 do
       s := (!s * 1103515245) + 12345;
       let j = (!s lsr 16) mod i in
       let v = t.(i) in
       t.(i) <- t.(j);
       t.(j) <- v
     done;
     t)

let probe_small = Array.init 4096 (fun i -> i * 7)
let probe_at = ref 0

let probe () =
  let t = Lazy.force probe_cycle in
  let t0 = now_ns () in
  let x = ref !probe_at in
  for _ = 1 to 1000 do
    x := t.(!x)
  done;
  probe_at := !x;
  let h = ref !x and k = ref !x in
  for _ = 1 to 8000 do
    k := ((!k * 1103515245) + 12345) land (probe_words - 1);
    h := !h + t.(!k)
  done;
  for i = 1 to 40000 do
    h := ((!h lxor probe_small.(!h land 4095)) * 0x100000001b3) + i
  done;
  let t1 = now_ns () in
  ignore (Sys.opaque_identity !h : int);
  t1 - t0
