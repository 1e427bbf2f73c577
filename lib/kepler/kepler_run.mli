(** Glue for running workflows as processes on the simulated OS: file
    accesses become the process's system calls (observed by PASS when the
    kernel is provenance-aware) and the DPAPI recorder discloses through
    the process's libpass. *)

val io : Process.t -> Actor.io
(** The engine's I/O as the process's system calls. *)

type recording = No_recording | Text_file of string | Dpapi
(** The three recorder configurations of paper Section 6.2. *)

val run : ?recording:recording -> Process.t -> Workflow.t -> Director.result
(** Run the workflow as the process; [recording] defaults to [Dpapi]. *)
