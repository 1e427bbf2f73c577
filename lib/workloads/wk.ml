(* Shared plumbing for the Table 2/3 workloads: deterministic payloads
   and a tiny PRNG (runs must be identical across the baseline and PASS
   configurations).  The workloads' processes and their file I/O are
   {!Process}s. *)

let payload ~seed ~len =
  let st = ref (seed * 2654435761) in
  String.init len (fun _ ->
      st := (!st * 1103515245) + 12345;
      Char.chr (abs (!st lsr 16) mod 256))

type rng = { mutable state : int }

let rng seed = { state = (seed * 2654435761) lor 1 }

let rand r bound =
  r.state <- (r.state * 0x5DEECE66D) + 0xB;
  abs (r.state lsr 17) mod max 1 bound
