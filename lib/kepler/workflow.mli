(** A workflow: actors plus the channels connecting their ports. *)

type link = {
  from_actor : string;
  from_port : string;
  to_actor : string;
  to_port : string;
}

type t = { wf_name : string; actors : Actor.t list; links : link list }

exception Invalid of string

val create : name:string -> actors:Actor.t list -> links:link list -> t
(** Validates port references, the single-writer rule, and that every
    input port is connected.  @raise Invalid otherwise. *)

val schedule : t -> Actor.t list
(** Topological firing order.  @raise Invalid on a cyclic workflow. *)

val consumers : t -> from_actor:string -> from_port:string -> (string * string) list
(** Who receives tokens produced on an output port. *)
