(* The First Provenance Challenge fMRI workflow [24], the workload the
   paper runs on PA-Kepler for the Figure 1 / Section 3.1 scenario.

   Stage structure (per the challenge specification):
     4x align_warp  (anatomy image + header, reference image) -> warp params
     4x reslice     (warp params) -> resliced image
     1x softmean    (4 resliced images) -> atlas image
     3x slicer      (atlas, one slice plane each: x, y, z) -> atlas slice
     3x convert     (slice) -> graphic written as atlas-{x,y,z}.gif

   The image "processing" is a deterministic string transformation — the
   provenance structure, not the pixels, is what the reproduction needs. *)

let subjects = [ 1; 2; 3; 4 ]
let planes = [ "x"; "y"; "z" ]

let anatomy_file ~input_dir i = Printf.sprintf "%s/anatomy%d.img" input_dir i
let reference_file ~input_dir = input_dir ^ "/reference.img"
let atlas_file ~output_dir plane = Printf.sprintf "%s/atlas-%s.gif" output_dir plane

(* cheap deterministic mixing so outputs reflect every input byte *)
let mix tag parts =
  let h = ref 1469598103934665603 in
  List.iter
    (fun part -> String.iter (fun c -> h := (!h lxor Char.code c) * 1099511628211) part)
    parts;
  Printf.sprintf "%s[%016x]" tag (!h land max_int)

let align_warp ~input_dir i =
  let name = Printf.sprintf "align_warp%d" i in
  Actor.make ~name
    ~params:[ ("model", "rigid"); ("subject", string_of_int i) ]
    ~inputs:[] ~outputs:[ "warp" ]
    (fun io _ ->
      let anatomy = io.Actor.read_file (anatomy_file ~input_dir i) in
      let reference = io.Actor.read_file (reference_file ~input_dir) in
      io.Actor.cpu 2_000_000;
      [ ("warp", Actor.token ~origin:name (mix "warp" [ anatomy; reference ])) ])

let reslice i =
  Actor.transform
    ~name:(Printf.sprintf "reslice%d" i)
    ~params:[ ("subject", string_of_int i) ]
    ~cpu_ns:1_500_000
    (fun warp -> mix "resliced" [ warp ])

let softmean =
  Actor.combine ~name:"softmean"
    ~params:[ ("method", "mean") ]
    ~cpu_ns:3_000_000
    ~inputs:(List.map (fun i -> Printf.sprintf "in%d" i) subjects)
    (fun images -> mix "atlas" images)

let slicer plane =
  Actor.transform
    ~name:("slicer_" ^ plane)
    ~params:[ ("plane", plane) ]
    ~cpu_ns:800_000
    (fun atlas -> mix ("slice-" ^ plane) [ atlas ])

let convert plane =
  Actor.transform
    ~name:("convert_" ^ plane)
    ~params:[ ("format", "gif") ]
    ~cpu_ns:500_000
    (fun slice -> mix ("gif-" ^ plane) [ slice ])

let sink ~output_dir plane =
  Actor.file_sink ~name:("store_" ^ plane) ~path:(atlas_file ~output_dir plane)

let workflow ~input_dir ~output_dir =
  let actors =
    List.map (align_warp ~input_dir) subjects
    @ List.map reslice subjects
    @ [ softmean ]
    @ List.map slicer planes
    @ List.map convert planes
    @ List.map (sink ~output_dir) planes
  in
  let links =
    List.concat_map
      (fun i ->
        [
          { Workflow.from_actor = Printf.sprintf "align_warp%d" i; from_port = "warp";
            to_actor = Printf.sprintf "reslice%d" i; to_port = "in" };
          { Workflow.from_actor = Printf.sprintf "reslice%d" i; from_port = "out";
            to_actor = "softmean"; to_port = Printf.sprintf "in%d" i };
        ])
      subjects
    @ List.concat_map
        (fun plane ->
          [
            { Workflow.from_actor = "softmean"; from_port = "out";
              to_actor = "slicer_" ^ plane; to_port = "in" };
            { Workflow.from_actor = "slicer_" ^ plane; from_port = "out";
              to_actor = "convert_" ^ plane; to_port = "in" };
            { Workflow.from_actor = "convert_" ^ plane; from_port = "out";
              to_actor = "store_" ^ plane; to_port = "in" };
          ])
        planes
  in
  Workflow.create ~name:"provenance-challenge" ~actors ~links

(* Write a synthetic input data set through [io]. *)
let prepare_inputs ~input_dir ?(tweak = "") (io : Actor.io) =
  List.iter
    (fun i ->
      io.Actor.write_file (anatomy_file ~input_dir i)
        (Printf.sprintf "anatomy-image-%d-%s" i tweak))
    subjects;
  io.Actor.write_file (reference_file ~input_dir) "reference-image"

(* The canned run: a workflow engine forked from init writes the inputs
   and runs the workflow once; [rerun] runs it again as the same
   process, after [io] has changed an input. *)
let run_canned sys ~input_dir ~output_dir =
  let engine = Process.spawn sys ~parent:Kernel.init_pid () in
  let io = Kepler_run.io engine in
  prepare_inputs ~input_dir io;
  let wf = workflow ~input_dir ~output_dir in
  let rerun () = ignore (Kepler_run.run engine wf : Director.result) in
  rerun ();
  (io, rerun)
