(* What a workload hands the benchmark loop: one set-up machine, poised at the
   start of its timed phase, and a seeded stream of operations on it. *)

type op = {
  run : unit -> unit;
      (** The timed body: system calls or queries only.  Raises on an
          errno ({!Pb_machine.Op_failed}) or any library failure. *)
  check : unit -> bool;  (** Untimed output check, after [run]. *)
}

type t = {
  m : Pb_machine.t;
  n_ops : int;
  gen : int -> op;
      (** Op [i]'s inputs (paths, payloads, query text), generated
          before its timer starts. *)
  restart_first : bool;
      (** The timed phase opens with a crash restart of the data volume
          (and set-up ends with the drain + checkpoint that precede it);
          otherwise the restart follows the ops. *)
  adopt : Provdb.t -> unit;  (** Hand the recovered database to the ops. *)
  user_bytes : unit -> int;  (** Live user data: the base of prov_space_ratio. *)
  verify : unit -> (string * bool) list;
      (** Named end-of-round checks, run after the drain, outside any
          timing. *)
  extra : unit -> (string * float) list;
      (** Per-layer readings only the workload can take. *)
}

let no_extra () = []
