(** Glue for running workflows as processes on the simulated OS: file
    accesses become system calls (observed by PASS when the kernel is
    provenance-aware) and the DPAPI recorder is wired to the process's
    libpass endpoint. *)

exception Io_error of Vfs.errno

val io_of_system : System.t -> pid:int -> Actor.io
(** Kernel-backed I/O in 4 KB chunks, as process [pid]. *)

type recording = No_recording | Text_file of string | Dpapi
(** The three recorder configurations of paper Section 6.2. *)

val run : ?recording:recording -> System.t -> pid:int -> Workflow.t -> Director.result
(** Run [wf] as process [pid]; [recording] defaults to [Dpapi]. *)
