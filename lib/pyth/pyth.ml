(* Top-level glue: run Pyth programs as a process on the simulated OS,
   optionally with the Provenance-Aware Python wrappers enabled.

   The host's file operations become system calls of the process; module
   sources are loaded from [module_dir] on the simulated file system. *)

module V = Pyth_value

let host_of_proc p ~module_path ~print : Pyth_interp.host =
  {
    Pyth_interp.read_file = Process.read_file p;
    write_file = Process.write_file p;
    listdir = (fun path -> Process.ok (Kernel.readdir (Process.kernel p) ~path));
    module_source =
      (fun name ->
        match module_path name with
        | None -> None
        | Some path -> (
            match Process.read_file p path with
            | source -> Some source
            | exception Process.Error _ -> None));
    print;
    cpu = Process.cpu p;
  }

type session = {
  interp : Pyth_interp.t;
  wrappers : Provwrap.t option;
  output : Buffer.t;
}

(* Create a Pyth session running as the process.  [provenance] enables
   the PA-Python wrappers (requires a PASS kernel to have any effect). *)
let create ?(provenance = true) ?(module_dir = "") p =
  let output = Buffer.create 256 in
  let print line =
    Buffer.add_string output line;
    Buffer.add_char output '\n'
  in
  let module_path name =
    if module_dir = "" then None else Some (Printf.sprintf "%s/%s.py" module_dir name)
  in
  let host = host_of_proc p ~module_path ~print in
  let globals = V.new_env () in
  let interp = Pyth_interp.create ~host ~globals () in
  Pyth_builtins.install_globals host globals;
  Pyth_builtins.install_modules interp;
  let wrappers =
    if provenance then
      Option.map (fun lp -> Provwrap.enable interp ~lp p ~module_path) (Process.libpass p)
    else None
  in
  { interp; wrappers; output }

let run t source = Pyth_interp.run_string t.interp source
let output t = Buffer.contents t.output
