(** The First Provenance Challenge fMRI workflow [paper ref 24] — the
    workload PA-Kepler runs in the Section 3.1 / Figure 1 scenario:
    4x align_warp → 4x reslice → softmean → 3x slicer → 3x convert,
    producing atlas-x/y/z.gif. *)

val planes : string list

val workflow : input_dir:string -> output_dir:string -> Workflow.t

val prepare_inputs : input_dir:string -> ?tweak:string -> Actor.io -> unit
(** Write the synthetic input data set; [tweak] varies the anatomy images
    (used to show input sensitivity). *)

val run_canned :
  System.t -> input_dir:string -> output_dir:string -> Actor.io * (unit -> unit)
(** Fork a workflow engine from init on the machine, write the inputs
    under [input_dir] as that process, and run {!workflow} once.  Returns
    the engine's I/O and a function that runs the workflow again as the
    same process. *)
