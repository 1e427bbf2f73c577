(** Shared plumbing for the Table 2/3 workloads: deterministic payloads
    and a deterministic RNG so baseline and PASS runs see identical
    operation streams. *)

val payload : seed:int -> len:int -> string

type rng

val rng : int -> rng
val rand : rng -> int -> int
