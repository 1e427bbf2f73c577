(* Provenance-Aware Python, realized as wrappers (paper §6.4).

   We wrap modules and functions with code that creates PASSv2 objects
   representing them, intercepts invocations, and records the
   relationships between objects:

   - every wrapped function gets a PASS object (TYPE=FUNCTION, NAME);
   - every call creates an invocation object (TYPE=INVOCATION) whose
     INPUT records name the function object and every provenance-tagged
     value found (deeply) in the arguments;
   - the result value is tagged with the invocation, so downstream
     wrapped calls — and files written by declared writer functions —
     chain to it;
   - declared reader functions (e.g. xml.parse_file) link the invocation
     to the file they read, and declared writer functions (e.g.
     plot.plot) link the written file to the invocation;
   - functions imported from module files link their function object to
     the module file, which is how the process-validation use case tells
     which outputs came through a particular library version.

   What is *not* wrapped — the interpreter's own operators — loses
   provenance, exactly the limitation §6.5 reports: wrapping makes an
   application provenance-aware; making Python itself provenance-aware
   would require modifying the interpreter. *)

module V = Pyth_value
module Dpapi = Pass_core.Dpapi
module Record = Pass_core.Record
module Libpass = Pass_core.Libpass

type t = {
  lp : Libpass.t;
  proc : Process.t;
  module_path : string -> string option;
  fn_objects : (string, Dpapi.handle) Hashtbl.t; (* "mod.fn" -> object *)
  mutable invocations : int;
}

(* Functions whose string argument at the given index names a file they
   read or write; used to link invocations to the file system layer. *)
let readers = [ ("xml.parse_file", 0); ("readfile", 0) ]
let writers = [ ("plot.plot", 2); ("writefile", 0) ]

let fn_object t qualified ~module_file =
  match Hashtbl.find_opt t.fn_objects qualified with
  | Some h -> h
  | None ->
      let h = Libpass.mkobj ~typ:"FUNCTION" ~name:qualified t.lp in
      (match module_file with
      | Some mf -> (
          match Process.handle_of_path t.proc mf with
          | Some fh -> Libpass.disclose t.lp h [ Record.input (Process.xref t.proc fh) ]
          | None -> ())
      | None -> ());
      Hashtbl.replace t.fn_objects qualified h;
      h

(* Deep scan of argument values for provenance tags (lists and dicts are
   interpreter containers: their elements may be tagged even though the
   container is not). *)
let rec tagged_handles acc (v : V.t) =
  let acc = match v.V.prov with Some h -> h :: acc | None -> acc in
  match v.V.data with
  | V.List l -> List.fold_left tagged_handles acc !l
  | V.Dict d -> List.fold_left (fun acc (k, vv) -> tagged_handles (tagged_handles acc k) vv) acc !d
  | _ -> acc

let path_arg args idx =
  match List.nth_opt args idx with
  | Some ({ V.data = V.Str s; _ } : V.t) -> Some s
  | _ -> None

(* Wrap one callable bound as [qualified]. *)
let wrap_callable t ~qualified ~module_file ~call_original (original : V.t) : V.t =
  let wrapper args =
    let fnobj = fn_object t qualified ~module_file in
    t.invocations <- t.invocations + 1;
    let inv =
      Libpass.mkobj ~typ:"INVOCATION"
        ~name:(Printf.sprintf "%s#%d" qualified t.invocations)
        t.lp
    in
    Libpass.disclose t.lp inv [ Record.input (Process.xref t.proc fnobj) ];
    (* dependencies between each input and the invocation *)
    let inputs = List.fold_left tagged_handles [] args in
    List.iter (fun h -> Libpass.disclose t.lp inv [ Record.input (Process.xref t.proc h) ]) inputs;
    (* reader functions: the invocation depends on the file read *)
    (match List.assoc_opt qualified readers with
    | Some idx -> (
        match Option.bind (path_arg args idx) (Process.handle_of_path t.proc) with
        | Some fh -> Libpass.disclose t.lp inv [ Record.input (Process.xref t.proc fh) ]
        | None -> ())
    | None -> ());
    let result = call_original original args in
    (* writer functions: the written file depends on the invocation *)
    (match List.assoc_opt qualified writers with
    | Some idx -> (
        match Option.bind (path_arg args idx) (Process.handle_of_path t.proc) with
        | Some fh -> Libpass.disclose t.lp fh [ Record.input (Process.xref t.proc inv) ]
        | None -> ())
    | None -> ());
    (* dependency between the invocation and its output; tag a copy so a
       returned argument is not retagged in place *)
    { result with V.prov = Some inv }
  in
  { V.data = V.Builtin (qualified, wrapper); prov = None }

(* Wrap every callable member of a module value in place. *)
let wrap_module t interp ~name (m : V.t) =
  match m.V.data with
  | V.Module (_, table) ->
      let module_file = t.module_path name in
      let snapshot = Hashtbl.fold (fun k vv acc -> (k, vv) :: acc) table [] in
      List.iter
        (fun (member, vv) ->
          match vv.V.data with
          | V.Builtin (_, f) ->
              let qualified = name ^ "." ^ member in
              Hashtbl.replace table member
                (wrap_callable t ~qualified ~module_file
                   ~call_original:(fun _ args -> f args)
                   vv)
          | V.Func _ ->
              let qualified = name ^ "." ^ member in
              Hashtbl.replace table member
                (wrap_callable t ~qualified ~module_file
                   ~call_original:(fun original args -> Pyth_interp.call interp original args)
                   vv)
          | _ -> ())
        snapshot
  | _ -> ()

(* Wrap selected global builtins (readfile/writefile). *)
let wrap_globals t (globals : V.env) =
  List.iter
    (fun name ->
      match Hashtbl.find_opt globals.V.vars name with
      | Some ({ V.data = V.Builtin (_, f); _ } as vv) ->
          Hashtbl.replace globals.V.vars name
            (wrap_callable t ~qualified:name ~module_file:None
               ~call_original:(fun _ args -> f args)
               vv)
      | _ -> ())
    [ "readfile"; "writefile" ]

let enable interp ~lp proc ~module_path =
  let t = { lp; proc; module_path; fn_objects = Hashtbl.create 32; invocations = 0 } in
  (* wrap the preinstalled standard modules *)
  Hashtbl.iter (fun name m -> wrap_module t interp ~name m) interp.Pyth_interp.modules;
  (* wrap modules imported later *)
  interp.Pyth_interp.on_import <- (fun name m -> wrap_module t interp ~name m);
  wrap_globals t interp.Pyth_interp.globals;
  t

let invocation_count t = t.invocations
