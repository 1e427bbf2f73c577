(* Little-endian wire primitives shared by the provenance record format,
   the ext3 journal, the Lasagna WAP log and the PA-NFS protocol. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let put_u8 buf n =
  if n < 0 || n > 0xff then invalid_arg "Wire.put_u8";
  Buffer.add_char buf (Char.chr n)

let put_u32 buf n =
  if n < 0 || n > 0xffffffff then invalid_arg "Wire.put_u32";
  Buffer.add_int32_le buf (Int32.of_int n)

let put_i64 buf n = Buffer.add_int64_le buf (Int64.of_int n)

let put_string buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s


let put_list buf put xs =
  put_u32 buf (List.length xs);
  List.iter (put buf) xs

let get_u8 s pos =
  if !pos + 1 > String.length s then corrupt "truncated u8";
  let c = Char.code s.[!pos] in
  incr pos;
  c

let get_u32 s pos =
  if !pos + 4 > String.length s then corrupt "truncated u32";
  let n = Int32.to_int (String.get_int32_le s !pos) land 0xffffffff in
  pos := !pos + 4;
  n

let get_i64 s pos =
  if !pos + 8 > String.length s then corrupt "truncated i64";
  let n = Int64.to_int (String.get_int64_le s !pos) in
  pos := !pos + 8;
  n

let get_string s pos =
  let len = get_u32 s pos in
  if !pos + len > String.length s then corrupt "truncated string (%d bytes)" len;
  let out = String.sub s !pos len in
  pos := !pos + len;
  out


let get_list get s pos =
  let n = get_u32 s pos in
  let rec loop k acc = if k = 0 then List.rev acc else loop (k - 1) (get s pos :: acc) in
  loop n []
