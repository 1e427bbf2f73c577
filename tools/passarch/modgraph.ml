module Sexp = Lintcommon.Sexp
module Srcutil = Lintcommon.Srcutil

type call = {
  c_path : string list;
  c_value : string;
  c_loc : Location.t;
  c_in_try : bool;
  c_cold : bool;
}

type raise_site = { r_exn : string; r_loc : Location.t; r_in_try : bool }
type hot_site = { hs_rule : string; hs_symbol : string; hs_loc : Location.t }

type binding = {
  b_name : string;
  b_loc : Location.t;
  b_calls : call list;
  b_raises : raise_site list;
  b_hot : hot_site list;
}

type file = {
  f_path : string;
  f_dir : string;
  f_module : string;
  f_intf : bool;
  f_layer : Layers.layer;
  f_mrefs : (string * Location.t) list;
  f_bindings : binding list;
  f_exports : string list option;
  f_mli_exns : string list;
  f_seeds : (string list * string) list;
  f_vals : (string * Location.t) list;
  f_opens : string list list;
  f_parse_error : bool;
}

type dir = {
  d_path : string;
  d_layer : Layers.layer;
  d_lib : string;
  d_wrapped : bool;
  d_libdeps : string list;
  d_has_dune : bool;
  d_library : bool;
}

(* How a module name resolves: strong entries are addressable from
   anywhere; weak entries (submodules of a wrapped library, modules of
   executable-only directories) only from their own directory. *)
type entry = { e_dir : string; e_file : string option; e_strong : bool }

type t = {
  t_files : file list;
  t_dirs : dir list;
  by_module : (string, entry list) Hashtbl.t;
  by_path : (string, file) Hashtbl.t;
  by_lib : (string, dir) Hashtbl.t;
  dir_by_path : (string, dir) Hashtbl.t;
}

let files t = t.t_files
let dirs t = t.t_dirs
let dir_of_lib t lib = Hashtbl.find_opt t.by_lib lib
let find_binding f name = List.find_opt (fun b -> String.equal b.b_name name) f.f_bindings

let impl_by_module t name =
  List.filter (fun f -> (not f.f_intf) && String.equal f.f_module name) t.t_files

(* --- dune files ----------------------------------------------------------- *)

(* The library/executable/test stanzas of a dune file: the library name
   and wrapping (how outsiders address the dir's modules) plus the union
   of declared (libraries ...) edges. *)
let parse_dune path =
  match Sexp.parse_file path with
  | exception _ -> None
  | stanzas ->
      let name = ref None and wrapped = ref true and libs = ref [] in
      List.iter
        (function
          | Sexp.List (Sexp.Atom kind :: items)
            when List.mem kind [ "library"; "executable"; "executables"; "test"; "tests" ] ->
              libs := !libs @ Sexp.field_strings "libraries" items;
              if String.equal kind "library" then begin
                (match Sexp.field_strings "name" items with
                | [ n ] when !name = None -> name := Some n
                | _ -> ());
                match Sexp.field_strings "wrapped" items with
                | [ "false" ] -> wrapped := false
                | _ -> ()
              end
          | _ -> ())
        stanzas;
      Some (!name, !wrapped, !libs)

(* --- AST helpers ---------------------------------------------------------- *)

let flatten (lid : Longident.t) =
  try Longident.flatten lid with _ -> []

let is_module_name s = String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'

(* --- pass A: module references, locals, aliases, exception decls ---------- *)

type apass = {
  mutable mrefs : (string * Location.t) list;
  mutable locals : string list;
  mutable aliases : (string * string list) list;
  mutable exn_decls : string list;  (* declared in this compilation unit *)
  mutable exports : string list;
  mutable sig_exns : string list;
  mutable opens : string list list;
}

let record_head a lid loc =
  match flatten lid with
  | head :: _ :: _ when is_module_name head ->
      if not (List.mem_assoc head a.mrefs) then a.mrefs <- (head, loc) :: a.mrefs
  | _ -> ()

(* module-position idents: even a bare [open M] / [module X = M] is an
   edge to [M] *)
let record_module_path a lid loc =
  match flatten lid with
  | head :: _ when is_module_name head ->
      if not (List.mem_assoc head a.mrefs) then a.mrefs <- (head, loc) :: a.mrefs
  | _ -> ()

let module_ident (m : Parsetree.module_expr) =
  match m.pmod_desc with Pmod_ident lid -> flatten lid.txt | _ -> []

let add_path paths = function
  | [] -> paths
  | p -> if List.mem p paths then paths else p :: paths

let apass_iterator a =
  let open Parsetree in
  let open Ast_iterator in
  {
    default_iterator with
    expr =
      (fun sub e ->
        (match e.pexp_desc with
        | Pexp_ident lid | Pexp_field (_, lid) | Pexp_setfield (_, lid, _)
        | Pexp_construct (lid, _) | Pexp_new lid ->
            record_head a lid.txt lid.loc
        | Pexp_record (fields, _) ->
            List.iter (fun (lid, _) -> record_head a lid.Asttypes.txt lid.loc) fields
        | Pexp_letmodule ({ txt = Some name; _ }, _, _) ->
            a.locals <- name :: a.locals
        | Pexp_open (od, _) -> a.opens <- add_path a.opens (module_ident od.popen_expr)
        | _ -> ());
        default_iterator.expr sub e);
    typ =
      (fun sub ty ->
        (match ty.ptyp_desc with
        | Ptyp_constr (lid, _) | Ptyp_class (lid, _) ->
            record_head a lid.txt lid.loc
        | _ -> ());
        default_iterator.typ sub ty);
    pat =
      (fun sub p ->
        (match p.ppat_desc with
        | Ppat_construct (lid, _) | Ppat_record ([ (lid, _) ], _) | Ppat_type lid
        | Ppat_open (lid, _) ->
            record_head a lid.txt lid.loc
        | Ppat_record (fields, _) ->
            List.iter (fun (lid, _) -> record_head a lid.Asttypes.txt lid.loc) fields
        | _ -> ());
        default_iterator.pat sub p);
    module_expr =
      (fun sub m ->
        (match m.pmod_desc with
        | Pmod_ident lid -> record_module_path a lid.txt lid.loc
        | _ -> ());
        default_iterator.module_expr sub m);
    module_type =
      (fun sub m ->
        (match m.pmty_desc with
        | Pmty_ident lid | Pmty_alias lid -> record_module_path a lid.txt lid.loc
        | _ -> ());
        default_iterator.module_type sub m);
    module_binding =
      (fun sub mb ->
        (match mb.pmb_name.txt with
        | Some name -> (
            a.locals <- name :: a.locals;
            match mb.pmb_expr.pmod_desc with
            | Pmod_ident lid ->
                let path = flatten lid.txt in
                if path <> [] then a.aliases <- (name, path) :: a.aliases
            | _ -> ())
        | None -> ());
        default_iterator.module_binding sub mb);
    structure_item =
      (fun sub si ->
        (match si.pstr_desc with
        | Pstr_exception te ->
            a.exn_decls <- te.ptyexn_constructor.pext_name.txt :: a.exn_decls
        | Pstr_open od -> a.opens <- add_path a.opens (module_ident od.popen_expr)
        | Pstr_include incl -> a.opens <- add_path a.opens (module_ident incl.pincl_mod)
        | _ -> ());
        default_iterator.structure_item sub si);
    signature_item =
      (fun sub si ->
        (match si.psig_desc with
        | Psig_value vd -> a.exports <- vd.pval_name.txt :: a.exports
        | Psig_exception te ->
            a.sig_exns <- te.ptyexn_constructor.pext_name.txt :: a.sig_exns
        | _ -> ());
        default_iterator.signature_item sub si);
  }

(* --- pass B: bindings, calls, raise sites, purity sites, traced seeds ----- *)

type bpass = {
  modname : string;
  known_exns : string list;  (* unqualified decls of this unit, for qualifying *)
  mutable bindings : binding list;
  mutable seeds : (string list * string) list;
  (* current accumulating binding *)
  mutable cur_name : string;
  mutable cur_loc : Location.t;
  mutable calls : call list;
  mutable raises : raise_site list;
  mutable hot : hot_site list;
  mutable in_try : int;
  mutable cold : int;
  mutable prefix : string list;  (* enclosing nested-module path *)
}

let qualify b exn_path =
  match exn_path with
  | [ e ] when List.mem e b.known_exns -> b.modname ^ "." ^ e
  | path -> String.concat "." path

let close_binding b =
  if not (String.equal b.cur_name "") || b.calls <> [] || b.raises <> [] || b.hot <> []
  then
    b.bindings <-
      {
        b_name = String.concat "." (List.rev_append (List.rev b.prefix) [ b.cur_name ]);
        b_loc = b.cur_loc;
        b_calls = List.rev b.calls;
        b_raises = List.rev b.raises;
        b_hot = List.rev b.hot;
      }
      :: b.bindings;
  b.cur_name <- "";
  b.calls <- [];
  b.raises <- [];
  b.hot <- []

let pat_name (p : Parsetree.pattern) =
  let rec go (p : Parsetree.pattern) =
    match p.ppat_desc with
    | Ppat_var v -> Some v.txt
    | Ppat_constraint (p, _) -> go p
    | _ -> None
  in
  go p

let is_lambda (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

let retention_sinks =
  [ ([ "ref" ], "ref");
    ([ "Hashtbl"; "add" ], "Hashtbl.add");
    ([ "Hashtbl"; "replace" ], "Hashtbl.replace");
    ([ "Queue"; "add" ], "Queue.add");
    ([ "Queue"; "push" ], "Queue.push");
    ([ ":=" ], ":=") ]

let rec last2 = function
  | [ a; b ] -> Some (a, b)
  | _ :: rest -> last2 rest
  | [] -> None

let bpass_iterator b =
  let open Parsetree in
  let open Ast_iterator in
  let site rule symbol loc =
    b.hot <- { hs_rule = rule; hs_symbol = symbol; hs_loc = loc } :: b.hot
  in
  let record_ident lid (loc : Location.t) =
    match flatten lid with
    | [] -> ()
    | [ v ] when not (is_module_name v) ->
        b.calls <-
          { c_path = []; c_value = v; c_loc = loc; c_in_try = b.in_try > 0;
            c_cold = b.cold > 0 }
          :: b.calls
    | path -> (
        match last2 ("" :: path) with
        | Some (_, v) when not (is_module_name v) ->
            let mpath = List.filteri (fun i _ -> i < List.length path - 1) path in
            b.calls <-
              { c_path = mpath; c_value = v; c_loc = loc; c_in_try = b.in_try > 0;
                c_cold = b.cold > 0 }
              :: b.calls;
            (match mpath with
            | [ "Printf" ] | [ "Format" ] ->
                if b.cold = 0 then
                  site "hot-path-format" (String.concat "." path) loc
            | [ "Vfs" ] when String.equal v "write_file" ->
                site "hot-path-write" "Vfs.write_file" loc
            | _ -> ())
        | _ -> ())
  in
  let has_exn_case (c : case) =
    match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false
  in
  let rec seed_refs (e : expression) =
    (* qualified value refs inside a Dpapi.traced argument *)
    let it =
      {
        default_iterator with
        expr =
          (fun sub e ->
            (match e.pexp_desc with
            | Pexp_ident lid -> (
                match flatten lid.txt with
                | path when List.length path >= 2 -> (
                    match last2 ("" :: path) with
                    | Some (_, v) when not (is_module_name v) ->
                        let mpath =
                          List.filteri (fun i _ -> i < List.length path - 1) path
                        in
                        b.seeds <- (mpath, v) :: b.seeds
                    | _ -> ())
                | _ -> ())
            | _ -> ());
            default_iterator.expr sub e);
      }
    in
    it.expr it e
  and expr sub (e : expression) =
    match e.pexp_desc with
    | Pexp_try (body, handlers) ->
        b.in_try <- b.in_try + 1;
        expr sub body;
        b.in_try <- b.in_try - 1;
        (* handler bodies are the cold error path *)
        b.cold <- b.cold + 1;
        List.iter (sub.case sub) handlers;
        b.cold <- b.cold - 1
    | Pexp_match (scrut, cases) when List.exists has_exn_case cases ->
        b.in_try <- b.in_try + 1;
        expr sub scrut;
        b.in_try <- b.in_try - 1;
        List.iter (sub.case sub) cases
    | Pexp_lazy _ ->
        site "hot-path-closure" "lazy" e.pexp_loc;
        default_iterator.expr sub e
    | Pexp_apply ({ pexp_desc = Pexp_ident fn; _ }, args) -> (
        let path = flatten fn.txt in
        let raise_of = function
          | [ "raise" ] | [ "raise_notrace" ] -> (
              match args with
              | [ (_, { pexp_desc = Pexp_construct (exn, _); _ }) ] ->
                  Some (qualify b (flatten exn.txt))
              | _ -> None)
          | [ "failwith" ] -> Some "Failure"
          | [ "invalid_arg" ] -> Some "Invalid_argument"
          | p -> (
              match last2 p with
              | Some ("Vfs", "fatal") -> Some "Vfs.Fatal"
              | _ -> None)
        in
        (match last2 ("" :: path) with
        | Some (_, "traced") when List.length path >= 2 -> (
            match last2 path with
            | Some ("Dpapi", _) -> List.iter (fun (_, a) -> seed_refs a) args
            | _ -> ())
        | _ -> ());
        (match List.assoc_opt path retention_sinks with
        | Some sink when List.exists (fun (_, a) -> is_lambda a) args ->
            site "hot-path-closure" (sink ^ "(fun)") e.pexp_loc
        | _ -> ());
        match raise_of path with
        | Some exn ->
            b.raises <-
              { r_exn = exn; r_loc = e.pexp_loc; r_in_try = b.in_try > 0 }
              :: b.raises;
            record_ident fn.txt fn.loc;
            (* the argument of a raise is the cold path: formatting an
               error message there is not a hot-path violation *)
            b.cold <- b.cold + 1;
            List.iter (fun (_, a) -> expr sub a) args;
            b.cold <- b.cold - 1
        | None -> default_iterator.expr sub e)
    | Pexp_ident lid ->
        record_ident lid.txt lid.loc;
        default_iterator.expr sub e
    | _ -> default_iterator.expr sub e
  in
  let structure_item sub (si : structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        close_binding b;
        List.iter
          (fun vb ->
            b.cur_name <- Option.value (pat_name vb.pvb_pat) ~default:"_";
            b.cur_loc <- vb.pvb_loc;
            sub.expr sub vb.pvb_expr;
            close_binding b)
          vbs
    | Pstr_module mb ->
        close_binding b;
        (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
        | Some name, Pmod_structure _ ->
            b.prefix <- b.prefix @ [ name ];
            sub.module_expr sub mb.pmb_expr;
            close_binding b;
            b.prefix <- List.filteri (fun i _ -> i < List.length b.prefix - 1) b.prefix
        | _ -> sub.module_expr sub mb.pmb_expr)
    | _ -> default_iterator.structure_item sub si
  in
  { default_iterator with expr; structure_item }

(* --- file scanning -------------------------------------------------------- *)

let parse_impl src path =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | s -> Some s
  | exception _ -> None

let parse_intf src path =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  match Parse.interface lexbuf with s -> Some s | exception _ -> None

let module_of_path path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

(* aliases threaded from pass A into call resolution via the file record *)
let file_aliases : (string, (string * string list) list) Hashtbl.t =
  Hashtbl.create 64

let scan_file ~root ~(layer : Layers.layer) ~dir rel =
  let src = Srcutil.read_file (Filename.concat root rel) in
  let intf = Filename.check_suffix rel ".mli" in
  let a =
    { mrefs = []; locals = []; aliases = []; exn_decls = []; exports = [];
      sig_exns = []; opens = [] }
  in
  let modname = module_of_path rel in
  let parse_error = ref false in
  let bindings = ref [] and seeds = ref [] and vals = ref [] in
  (if intf then
     match parse_intf src rel with
     | None -> parse_error := true
     | Some sg ->
         let it = apass_iterator a in
         it.signature it sg;
         vals :=
           List.filter_map
             (fun (si : Parsetree.signature_item) ->
               match si.psig_desc with
               | Psig_value vd -> Some (vd.pval_name.txt, vd.pval_loc)
               | _ -> None)
             sg
   else
     match parse_impl src rel with
     | None -> parse_error := true
     | Some st ->
         let it = apass_iterator a in
         it.structure it st;
         let bp =
           { modname; known_exns = a.exn_decls; bindings = []; seeds = [];
             cur_name = ""; cur_loc = Location.none; calls = []; raises = [];
             hot = []; in_try = 0; cold = 0; prefix = [] }
         in
         let it = bpass_iterator bp in
         it.structure it st;
         close_binding bp;
         bindings := List.rev bp.bindings;
         seeds := List.rev bp.seeds);
  let locals = a.locals in
  let mrefs =
    List.filter (fun (h, _) -> not (List.mem h locals)) (List.rev a.mrefs)
  in
  Hashtbl.replace file_aliases rel a.aliases;
  {
    f_path = rel;
    f_dir = dir;
    f_module = modname;
    f_intf = intf;
    f_layer = layer;
    f_mrefs = mrefs;
    f_bindings = !bindings;
    (* for .mli files: own exports; for .ml: attached from the companion
       interface after the scan *)
    f_exports = (if intf then Some (List.rev a.exports) else None);
    f_mli_exns = List.rev_map (fun e -> modname ^ "." ^ e) a.sig_exns;
    f_seeds = !seeds;
    f_vals = !vals;
    f_opens = List.rev a.opens;
    f_parse_error = !parse_error;
  }

let scan ~(layers : Layers.t) ~root =
  Hashtbl.reset file_aliases;
  let all_dirs = ref [] and all_files = ref [] in
  List.iter
    (fun (l : Layers.layer) ->
      List.iter
        (fun d ->
          let abs = Filename.concat root d in
          if Sys.file_exists abs && Sys.is_directory abs then begin
            let mls =
              List.map
                (fun p -> (* relative to root *)
                  let pre = String.length root + 1 in
                  String.sub p pre (String.length p - pre))
                (Srcutil.walk ~suffix:".ml" [ abs ])
            and mlis =
              List.map
                (fun p ->
                  let pre = String.length root + 1 in
                  String.sub p pre (String.length p - pre))
                (Srcutil.walk ~suffix:".mli" [ abs ])
            in
            let dune_path = Filename.concat abs "dune" in
            let name, wrapped, libdeps, has_dune, library =
              if Sys.file_exists dune_path then
                match parse_dune dune_path with
                | Some (n, w, deps) ->
                    (Option.value n ~default:(Filename.basename d),
                     (match n with Some _ -> w | None -> false),
                     deps, true, n <> None)
                | None -> (Filename.basename d, false, [], true, false)
              else (Filename.basename d, false, [], false, false)
            in
            all_dirs :=
              { d_path = d; d_layer = l; d_lib = name; d_wrapped = wrapped;
                d_libdeps = libdeps; d_has_dune = has_dune;
                d_library = library }
              :: !all_dirs;
            List.iter
              (fun rel ->
                all_files := scan_file ~root ~layer:l ~dir:d rel :: !all_files)
              (mls @ mlis)
          end)
        l.l_dirs)
    layers.Layers.layers;
  let t_dirs = List.rev !all_dirs in
  (* attach each interface's exports/exceptions to its implementation *)
  let fs = List.rev !all_files in
  let intf_of = Hashtbl.create 64 in
  List.iter
    (fun f -> if f.f_intf then Hashtbl.replace intf_of f.f_path f)
    fs;
  let t_files =
    List.map
      (fun f ->
        if f.f_intf then f
        else
          match Hashtbl.find_opt intf_of (f.f_path ^ "i") with
          | None -> f
          | Some i ->
              { f with f_exports = i.f_exports; f_mli_exns = i.f_mli_exns;
                f_vals = i.f_vals })
      fs
  in
  (* module-name resolution tables *)
  let by_module = Hashtbl.create 256 in
  let add_entry name e =
    Hashtbl.replace by_module name
      (match Hashtbl.find_opt by_module name with
      | None -> [ e ]
      | Some es -> es @ [ e ])
  in
  let by_path = Hashtbl.create 256 in
  List.iter (fun f -> if not f.f_intf then Hashtbl.replace by_path f.f_path f) t_files;
  let by_lib = Hashtbl.create 32 and dir_by_path = Hashtbl.create 32 in
  List.iter
    (fun d ->
      Hashtbl.replace dir_by_path d.d_path d;
      if d.d_has_dune then Hashtbl.replace by_lib d.d_lib d)
    t_dirs;
  List.iter
    (fun d ->
      let dir_impls =
        List.filter
          (fun f -> (not f.f_intf) && String.equal f.f_dir d.d_path)
          t_files
      in
      (* a library is addressable from outside: wrapped through its
         wrapper module, unwrapped through every module; executable-only
         directories (no library stanza) are not addressable at all *)
      let is_library = d.d_has_dune && Hashtbl.mem by_lib d.d_lib in
      if d.d_wrapped && is_library then begin
        let wrapper = String.capitalize_ascii d.d_lib in
        let main =
          List.find_opt (fun f -> String.equal f.f_module wrapper) dir_impls
        in
        add_entry wrapper
          { e_dir = d.d_path;
            e_file = Option.map (fun f -> f.f_path) main;
            e_strong = true };
        List.iter
          (fun f ->
            if not (String.equal f.f_module wrapper) then
              add_entry f.f_module
                { e_dir = d.d_path; e_file = Some f.f_path; e_strong = false })
          dir_impls
      end
      else
        List.iter
          (fun f ->
            add_entry f.f_module
              { e_dir = d.d_path; e_file = Some f.f_path; e_strong = is_library })
          dir_impls)
    t_dirs;
  { t_files; t_dirs; by_module; by_path; by_lib; dir_by_path }

(* --- resolution ----------------------------------------------------------- *)

let entry_for t ~from_dir name =
  match Hashtbl.find_opt t.by_module name with
  | None -> None
  | Some es -> (
      match List.find_opt (fun e -> e.e_strong) es with
      | Some e -> Some e
      | None -> List.find_opt (fun e -> String.equal e.e_dir from_dir) es)

let resolve_head t ~from_dir name =
  Option.bind (entry_for t ~from_dir name) (fun e ->
      Hashtbl.find_opt t.dir_by_path e.e_dir)

let rec resolve_call t ~from (c : call) =
  match c.c_path with
  | [] ->
      Option.map (fun b -> (from, b.b_name)) (find_binding from c.c_value)
  | head :: rest -> (
      let aliases =
        Option.value (Hashtbl.find_opt file_aliases from.f_path) ~default:[]
      in
      match List.assoc_opt head aliases with
      | Some target ->
          resolve_call t ~from
            { c with c_path = target @ rest }
      | None -> (
          match entry_for t ~from_dir:from.f_dir head with
          | None ->
              (* a nested module of this very file? *)
              let name = String.concat "." (c.c_path @ [ c.c_value ]) in
              Option.map (fun b -> (from, b.b_name)) (find_binding from name)
          | Some e -> (
              let target_file, bpath =
                match e.e_file with
                | Some fp -> (Some fp, rest)
                | None -> (
                    (* wrapped library wrapper: the next component names
                       the submodule file *)
                    match rest with
                    | sub :: rest' ->
                        ( Some
                            (Filename.concat e.e_dir
                               (String.uncapitalize_ascii sub ^ ".ml")),
                          rest' )
                    | [] -> (None, []))
              in
              match Option.bind target_file (Hashtbl.find_opt t.by_path) with
              | None -> None
              | Some f ->
                  let bname = String.concat "." (bpath @ [ c.c_value ]) in
                  Option.map (fun b -> (f, b.b_name)) (find_binding f bname))))
