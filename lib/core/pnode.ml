(* Pnode numbers: unique, never-recycled provenance handles (paper §5.2). *)

type t = int

let compare = Int.compare
let equal = Int.equal

let to_int t = t
let of_int i = i
let pp ppf t = Format.fprintf ppf "p%d" t

(* Allocators are seeded with a machine id so that pnodes allocated on
   different machines (e.g. an NFS client and server) never collide.  The
   machine id occupies the high bits; 40 low bits of sequence leave room for
   ~10^12 objects per machine, far beyond what a simulation allocates. *)
let machine_shift = 40

type allocator = { machine : int; mutable next : int }

let allocator ~machine =
  if machine < 0 || machine > 0x3fffff then invalid_arg "Pnode.allocator";
  { machine; next = 1 }

let fresh alloc =
  let seq = alloc.next in
  alloc.next <- seq + 1;
  (alloc.machine lsl machine_shift) lor seq

let machine_of t = t lsr machine_shift
