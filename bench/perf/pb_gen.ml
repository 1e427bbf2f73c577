(* Seeded input generation.  Every stream is derived from the run's
   --seed, so a seed fixes every path, size and payload of a run. *)

type rng = { mutable s : int }

(* splitmix-style mixing keeps nearby seeds (1, 2, 3, ...) far apart *)
let mix x =
  let x = (x lxor (x lsr 30)) * 0xbf58476d1ce4e5b in
  let x = (x lxor (x lsr 27)) * 0x94d049bb133111e in
  x lxor (x lsr 31)

let rng ~seed ~stream = { s = mix ((seed * 0x9e3779b97f4a7c1) + stream) }

let next r =
  r.s <- r.s + 0x9e3779b97f4a7c1;
  mix r.s land max_int

(* Uniform in [0, bound). *)
let int r bound = next r mod max 1 bound

(* Uniform in [lo, hi]. *)
let range r lo hi = lo + int r (hi - lo + 1)

(* Deterministic payload bytes, eight at a time. *)
let payload ~seed ~len =
  let b = Bytes.create len in
  let st = ref (mix (seed lor 1)) in
  let i = ref 0 in
  while !i + 8 <= len do
    st := mix (!st + 0x9e3779b97f4a7c1);
    Bytes.set_int64_le b !i (Int64.of_int !st);
    i := !i + 8
  done;
  while !i < len do
    st := mix (!st + 1);
    Bytes.set b !i (Char.chr (!st land 0xff));
    incr i
  done;
  Bytes.unsafe_to_string b

(* Fisher-Yates, in place. *)
let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [n] values spread evenly over [lo, hi] -- one per stratum, jittered
   inside it -- in seeded order.  Every seed draws the same distribution,
   so run-to-run differences between seeds stay small. *)
let stratified r ~n ~lo ~hi =
  let span = float_of_int (hi - lo + 1) in
  shuffle r
    (Array.init n (fun i ->
         let u = float_of_int (int r 1_000_000) /. 1e6 in
         lo + int_of_float (span *. (float_of_int i +. u) /. float_of_int n)))

(* [n] labels in exact proportion to [weights], in seeded order. *)
let balanced r ~n weights =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  let labels =
    List.concat_map (fun (label, w) -> List.init (n * w / total) (fun _ -> label)) weights
  in
  let short = n - List.length labels in
  let fill = List.init short (fun _ -> fst (List.hd weights)) in
  shuffle r (Array.of_list (labels @ fill))
