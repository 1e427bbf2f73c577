(* Provenance records: a single unit of provenance, an attribute/value pair
   (paper §5.2).  Also hosts the registry of record types per PA application
   that the paper summarizes in Table 1. *)

type t = { attr : string; value : Pvalue.t }

let make attr value = { attr; value }
let input x = { attr = "INPUT"; value = x }
let input_of pnode version = input (Pvalue.xref pnode version)
let name n = { attr = "NAME"; value = Pvalue.Str n }
let typ ty = { attr = "TYPE"; value = Pvalue.Str ty }

let equal a b = String.equal a.attr b.attr && Pvalue.equal a.value b.value

let is_ancestry r =
  match r.value with Pvalue.Xref _ -> true | _ -> false

let xref_of r =
  match r.value with Pvalue.Xref x -> Some x | _ -> None

let encode buf { attr; value } =
  Pvalue.put_string buf attr;
  Pvalue.encode buf value

let encoded_size { attr; value } = 4 + String.length attr + Pvalue.encoded_size value

let decode s pos =
  let attr = Pvalue.get_string s pos in
  let value = Pvalue.decode s pos in
  { attr; value }

(* Standard attribute names used across the stack.  Keeping them in one place
   avoids typo-induced islands of provenance. *)
module Attr = struct
  let input = "INPUT"
  let name = "NAME"
  let typ = "TYPE"
  let argv = "ARGV"
  let env = "ENV"
  let pid = "PID"
  let freeze = "FREEZE"
  let begintxn = "BEGINTXN"
  let endtxn = "ENDTXN"
  let params = "PARAMS"
  let visited_url = "VISITED_URL"
  let file_url = "FILE_URL"
  let current_url = "CURRENT_URL"
  let version_of = "VERSION_OF" (* links a new version to its predecessor *)
  let data_md5 = "DATA_MD5"
  let path = "PATH"
end

(* The one freeze rule: bump the object's version, then mark the new
   version with a FREEZE record carrying its number and an ancestry edge
   to the version it closed.  Sent in the same pass_write stream as the
   writes it protects, which keeps freeze ordered with them (§6.1.2). *)
let freeze ctx pnode =
  let old_version = Ctx.current_version ctx pnode in
  let version = Ctx.freeze ctx pnode in
  (version, [ make Attr.freeze (Pvalue.Int version); input_of pnode old_version ])

(* Table 1 registry: record types collected by each provenance-aware
   system.  The bench harness prints this table; the PA applications assert
   that the records they emit are registered here. *)
type registered = { system : string; record_type : string; description : string }

let registry : registered list =
  [
    { system = "PA-NFS"; record_type = Attr.begintxn; description = "Beginning record of a transaction" };
    { system = "PA-NFS"; record_type = Attr.endtxn; description = "Terminating record of a transaction" };
    { system = "PA-NFS"; record_type = Attr.freeze; description = "Freeze record sent in pass_write" };
    { system = "PA-Kepler"; record_type = Attr.typ; description = "Type of object: set to OPERATOR" };
    { system = "PA-Kepler"; record_type = Attr.name; description = "Name of the operator" };
    { system = "PA-Kepler"; record_type = Attr.params; description = "Operator parameters" };
    { system = "PA-Kepler"; record_type = Attr.input; description = "Dependency between operators" };
    { system = "PA-links"; record_type = Attr.typ; description = "Type of object: set to SESSION" };
    { system = "PA-links"; record_type = Attr.visited_url; description = "Session and URL dependency" };
    { system = "PA-links"; record_type = Attr.file_url; description = "File and URL dependency" };
    { system = "PA-links"; record_type = Attr.current_url;
      description = "URL user was viewing while download was initiated" };
    { system = "PA-links"; record_type = Attr.input; description = "File and Session dependency" };
    { system = "PA-Python"; record_type = Attr.typ; description = "Type of object: e.g., FUNCTION" };
    { system = "PA-Python"; record_type = Attr.name; description = "object name (e.g., method name)" };
    { system = "PA-Python"; record_type = Attr.input;
      description =
        "method input and invocation dependency or invocation and output dependency" };
  ]

let registered ~system ~record_type =
  List.exists
    (fun r -> String.equal r.system system && String.equal r.record_type record_type)
    registry
