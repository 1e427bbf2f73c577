(** The Postmark workload (Table 2, row 2): an email-server simulation —
    a pool of files over 10 subdirectories, then a create/delete and
    read/append transaction mix with bounded file sizes.  The counts are
    scaled down; the mix is Postmark's. *)

type params = {
  files : int;
  transactions : int;
  subdirs : int;
  min_size : int;
  max_size : int;
}

val default : params

val run : ?params:params -> System.t -> parent:int -> unit
