(* Provenance record values (paper §5.2): a plain value or a cross-reference
   to another object at a specific version. *)

type t =
  | Str of string
  | Int of int
  | Bool of bool
  | Bytes of string
  | Strs of string list
  | Xref of xref

and xref = { pnode : Pnode.t; version : int }

let xref pnode version = Xref { pnode; version }

let equal a b =
  match (a, b) with
  | Str x, Str y -> String.equal x y
  | Int x, Int y -> Int.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Bytes x, Bytes y -> String.equal x y
  | Strs x, Strs y -> List.length x = List.length y && List.for_all2 String.equal x y
  | Xref x, Xref y -> Pnode.equal x.pnode y.pnode && Int.equal x.version y.version
  | (Str _ | Int _ | Bool _ | Bytes _ | Strs _ | Xref _), _ -> false

let pp ppf = function
  | Str s -> Format.fprintf ppf "%S" s
  | Int i -> Format.fprintf ppf "%d" i
  | Bool b -> Format.fprintf ppf "%b" b
  | Bytes b -> Format.fprintf ppf "<%d bytes>" (String.length b)
  | Strs ss -> Format.fprintf ppf "[%s]" (String.concat "; " ss)
  | Xref { pnode; version } -> Format.fprintf ppf "%a.%d" Pnode.pp pnode version

(* Wire format: 1 tag byte followed by a type-specific payload.  Integers are
   64-bit little-endian; strings are u32-length-prefixed.  This format is
   shared by the Lasagna WAP log and the PA-NFS protocol. *)

let put_u32 = Wire.put_u32
let put_string = Wire.put_string

let encode buf = function
  | Str s ->
      Buffer.add_char buf '\001';
      put_string buf s
  | Int i ->
      Buffer.add_char buf '\002';
      Buffer.add_int64_le buf (Int64.of_int i)
  | Bool b ->
      Buffer.add_char buf '\003';
      Buffer.add_char buf (if b then '\001' else '\000')
  | Bytes b ->
      Buffer.add_char buf '\004';
      put_string buf b
  | Strs ss ->
      Buffer.add_char buf '\005';
      put_u32 buf (List.length ss);
      List.iter (put_string buf) ss
  | Xref { pnode; version } ->
      Buffer.add_char buf '\006';
      Buffer.add_int64_le buf (Int64.of_int (Pnode.to_int pnode));
      Buffer.add_int64_le buf (Int64.of_int version)

(* The length [encode] appends, without encoding. *)
let encoded_size = function
  | Str s | Bytes s -> 5 + String.length s
  | Int _ -> 9
  | Bool _ -> 2
  | Strs ss -> List.fold_left (fun acc s -> acc + 4 + String.length s) 5 ss
  | Xref _ -> 17

exception Corrupt = Wire.Corrupt

let get_u32 = Wire.get_u32
let get_i64 = Wire.get_i64
let get_string = Wire.get_string

let decode s pos =
  if !pos >= String.length s then Wire.corrupt "truncated value";
  let tag = s.[!pos] in
  incr pos;
  match tag with
  | '\001' -> Str (get_string s pos)
  | '\002' -> Int (get_i64 s pos)
  | '\003' ->
      if !pos >= String.length s then Wire.corrupt "truncated bool";
      let b = s.[!pos] <> '\000' in
      incr pos;
      Bool b
  | '\004' -> Bytes (get_string s pos)
  | '\005' ->
      let n = get_u32 s pos in
      let rec loop k acc = if k = 0 then List.rev acc else loop (k - 1) (get_string s pos :: acc) in
      Strs (loop n [])
  | '\006' ->
      let pnode = Pnode.of_int (get_i64 s pos) in
      let version = get_i64 s pos in
      Xref { pnode; version }
  | c -> Wire.corrupt "bad value tag %d" (Char.code c)
