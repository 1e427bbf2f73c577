(* Glue for running a workflow as a process on the simulated OS: the
   engine's file accesses become the process's system calls (observed by
   PASS when the kernel is provenance-aware), and the DPAPI recorder
   discloses through the process's libpass. *)

let io p : Actor.io =
  { Actor.read_file = Process.read_file p; write_file = Process.write_file p; cpu = Process.cpu p }

(* The three recorder configurations of paper §6.2. *)
type recording = No_recording | Text_file of string | Dpapi

let recorder_of p = function
  | No_recording -> Recorder.null
  | Text_file path ->
      let lines = Buffer.create 256 in
      let write_line l =
        Buffer.add_string lines l;
        Buffer.add_char lines '\n';
        (* append-by-rewrite keeps the helper simple; the file is small *)
        Process.write_file p path (Buffer.contents lines)
      in
      Recorder.text ~write_line
  | Dpapi -> (
      match Process.libpass p with
      | None -> Recorder.null (* vanilla kernel: nothing to disclose to *)
      | Some lp -> Recorder.pass ~lp p)

let run ?(recording = Dpapi) p wf = Director.run ~recorder:(recorder_of p recording) wf (io p)
