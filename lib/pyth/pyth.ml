(* Top-level glue: run Pyth programs as a process on the simulated OS,
   optionally with the Provenance-Aware Python wrappers enabled.

   The host's file operations become system calls of [pid]; module
   sources are loaded from [module_dir] on the simulated file system. *)

module V = Pyth_value
module Libpass = Pass_core.Libpass

exception Io_error of Vfs.errno

let ok = function Ok v -> v | Error e -> raise (Io_error e)

let read_file sys ~pid path =
  let k = System.kernel sys in
  let fd = ok (Kernel.open_file k ~pid ~path ~create:false) in
  let buf = Buffer.create 4096 in
  let rec loop () =
    let chunk = ok (Kernel.read k ~pid ~fd ~len:4096) in
    if chunk <> "" then begin
      Buffer.add_string buf chunk;
      loop ()
    end
  in
  loop ();
  ok (Kernel.close k ~pid ~fd);
  Buffer.contents buf

let write_file sys ~pid path data =
  let k = System.kernel sys in
  let fd = ok (Kernel.open_file k ~pid ~path ~create:true) in
  let len = String.length data in
  let pos = ref 0 in
  while !pos < len do
    let n = min 4096 (len - !pos) in
    ok (Kernel.write k ~pid ~fd ~data:(String.sub data !pos n));
    pos := !pos + n
  done;
  ok (Kernel.close k ~pid ~fd)

let host_of_system ~module_dir sys ~pid ~print : Pyth_interp.host =
  let module_path name =
    if module_dir = "" then None else Some (Printf.sprintf "%s/%s.py" module_dir name)
  in
  {
    Pyth_interp.read_file = (fun path -> read_file sys ~pid path);
    write_file = (fun path data -> write_file sys ~pid path data);
    listdir =
      (fun path ->
        match Kernel.readdir (System.kernel sys) ~path with
        | Ok names -> names
        | Error e -> raise (Io_error e));
    module_source =
      (fun name ->
        match module_path name with
        | None -> None
        | Some path -> (
            match read_file sys ~pid path with
            | source -> Some source
            | exception Io_error _ -> None));
    print;
    cpu = (fun ns -> Kernel.cpu (System.kernel sys) ns);
  }

type session = {
  interp : Pyth_interp.t;
  wrappers : Provwrap.t option;
  output : Buffer.t;
}

(* Create a Pyth session running as [pid].  [provenance] enables the
   PA-Python wrappers (requires a PASS kernel to have any effect). *)
let create ?(provenance = true) ?(module_dir = "") sys ~pid () =
  let output = Buffer.create 256 in
  let print line =
    Buffer.add_string output line;
    Buffer.add_char output '\n'
  in
  let host = host_of_system ~module_dir sys ~pid ~print in
  let globals = V.new_env () in
  let interp = Pyth_interp.create ~host ~globals () in
  Pyth_builtins.install_globals host globals;
  Pyth_builtins.install_modules interp;
  let wrappers =
    match (provenance, System.app_endpoint sys ~pid) with
    | true, Some endpoint ->
        let lp = Libpass.connect ~endpoint ~pid in
        let handle_of_path path =
          match Kernel.handle_of_path (System.kernel sys) path with
          | Ok h -> Some h
          | Error _ -> None
        in
        let module_path name =
          if module_dir = "" then None else Some (Printf.sprintf "%s/%s.py" module_dir name)
        in
        Some
          (Provwrap.enable interp ~lp
             ~ctx:(Kernel.ctx (System.kernel sys))
             ~handle_of_path ~module_path)
    | _ -> None
  in
  { interp; wrappers; output }

let run t source = Pyth_interp.run_string t.interp source
let output t = Buffer.contents t.output
