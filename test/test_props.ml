(* Cross-cutting property tests: parser robustness (fuzz), end-to-end
   record round-trips through the storage stack, Sxml print/parse
   stability, the WAP log fold against a substring-based reference,
   distributor invariant 4 under random traffic, and version
   monotonicity in Ctx. *)

open Pass_core

let tbool = Alcotest.bool
let check = Alcotest.check

(* --- fuzz: parsers may reject, never crash or hang --------------------------- *)

let junk_gen =
  QCheck2.Gen.(
    oneof
      [
        string_size ~gen:printable (int_bound 200);
        (* biased junk: PQL/Pyth-looking fragments glued randomly *)
        (let frag =
           oneofl
             [ "select "; "from "; "where "; "Provenance.file"; " as X"; ".input*"; "(";
               ")"; "\""; "'"; "|"; "^"; "def f():"; "\n    "; "return "; "if "; ":";
               "=="; "x = "; "[1, 2]"; "{"; "}"; "import "; "0.5"; "~"; "--"; "#" ]
         in
         map (String.concat "") (list_size (int_bound 12) frag));
      ])

let prop_pql_parser_total =
  QCheck2.Test.make ~name:"pql parser: total on junk" ~count:400 junk_gen (fun input ->
      match Pql.parse input with
      | _ -> true
      | exception Pql.Error _ -> true)

let prop_pyth_parser_total =
  QCheck2.Test.make ~name:"pyth parser: total on junk" ~count:400 junk_gen (fun input ->
      match Pyth_parser.parse input with
      | _ -> true
      | exception (Pyth_parser.Error _ | Pyth_lexer.Error _) -> true)

let prop_sxml_parser_total =
  QCheck2.Test.make ~name:"sxml parser: total on junk" ~count:400 junk_gen (fun input ->
      match Sxml.parse input with _ -> true | exception Sxml.Parse_error _ -> true)

(* --- sxml: print/parse stability on random trees ----------------------------- *)

let gen_xml_tree =
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "experiment"; "r"; "x-y" ] in
  let attr_name = oneofl [ "k"; "v"; "stress"; "id" ] in
  (* whitespace-only text nodes are legitimately dropped by the parser,
     so keep generated text visibly non-blank *)
  let text = map (fun s -> "t" ^ s) (string_size ~gen:(char_range ' ' 'z') (int_bound 11)) in
  let attrs = list_size (int_bound 3) (pair attr_name text) in
  (* dedup attribute names: XML forbids duplicates, our printer would
     produce them *)
  let attrs =
    map (fun l -> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) l) attrs
  in
  fix
    (fun self depth ->
      if depth = 0 then
        map2 (fun tag attrs -> { Sxml.tag; attrs; children = [] }) tag attrs
      else
        map3
          (fun tag attrs children -> { Sxml.tag; attrs; children })
          tag attrs
          (list_size (int_bound 3)
             (oneof
                [
                  map (fun e -> Sxml.Element e) (self (depth - 1));
                  map (fun t -> Sxml.Text t) text;
                ])))
    3

let prop_sxml_roundtrip =
  QCheck2.Test.make ~name:"sxml: print/parse stable" ~count:200 gen_xml_tree (fun tree ->
      let once = Sxml.to_string tree in
      match Sxml.parse once with
      | reparsed -> String.equal once (Sxml.to_string reparsed)
      | exception Sxml.Parse_error _ -> false)

(* --- storage roundtrip: disclose -> WAP log -> Waldo -> query ----------------- *)

let gen_attr = QCheck2.Gen.oneofl [ "PARAMS"; "NAME"; "TYPE"; "FILE_URL"; "CUSTOM_X" ]

let gen_value =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> Pvalue.Str s) (string_size ~gen:printable (int_bound 40));
        map (fun i -> Pvalue.Int i) int;
        map (fun b -> Pvalue.Bool b) bool;
      ])

let prop_storage_roundtrip =
  QCheck2.Test.make ~name:"records survive log -> Waldo intact" ~count:40
    QCheck2.Gen.(list_size (int_range 1 25) (pair gen_attr gen_value))
    (fun pairs ->
      let clock = Simdisk.Clock.create () in
      let disk = Simdisk.Disk.create ~clock () in
      let ext3 = Ext3.format disk in
      let ctx = Ctx.create ~machine:1 in
      let lasagna =
        Lasagna.create ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0"
          ~charge:(Simdisk.Clock.advance clock) ()
      in
      let waldo = Waldo.create ~lower:(Ext3.ops ext3) () in
      Waldo.attach waldo lasagna;
      let ep = Lasagna.endpoint lasagna in
      let h = match ep.pass_mkobj ~volume:(Some "vol0") with Ok h -> h | Error _ -> assert false in
      let records = List.map (fun (a, v) -> Record.make a v) pairs in
      (match Dpapi.disclose ep h records with Ok () -> () | Error _ -> assert false);
      ignore (Waldo.finalize waldo lasagna : int);
      let stored = Provdb.records_all (Waldo.db waldo) h.Dpapi.pnode in
      (* every disclosed record is retrievable, in order, value-intact *)
      List.length stored = List.length records
      && List.for_all2
           (fun (r : Record.t) (q : Record.t) ->
             String.equal r.attr q.attr && Pvalue.equal r.value q.value)
           records stored)

(* Waldo charges each record its encoded size without encoding it: the
   arithmetic must match the encoder on every value shape, including the
   ones the storage round trip above does not generate. *)
let gen_wire_value =
  QCheck2.Gen.(
    oneof
      [
        gen_value;
        map (fun s -> Pvalue.Bytes s) (string_size (int_bound 40));
        map (fun l -> Pvalue.Strs l) (list_size (int_bound 5) (string_size ~gen:printable (int_bound 12)));
        map2 (fun p v -> Pvalue.xref (Pnode.of_int p) v) int int;
      ])

let prop_record_encoded_size =
  QCheck2.Test.make ~name:"Record.encoded_size = length of Record.encode" ~count:300
    QCheck2.Gen.(pair (oneof [ gen_attr; string_size ~gen:printable (int_bound 20) ]) gen_wire_value)
    (fun (attr, value) ->
      let r = Record.make attr value in
      let buf = Buffer.create 64 in
      Record.encode buf r;
      Record.encoded_size r = Buffer.length buf)

let gen_entry =
  QCheck2.Gen.(
    map3
      (fun p volume records -> Dpapi.entry (Dpapi.handle ?volume (Pnode.of_int p)) records)
      nat
      (opt (string_size ~gen:printable (int_bound 12)))
      (list_size (int_bound 4) (map2 Record.make gen_attr gen_wire_value)))

(* PA-NFS sizes every bundle it sends the same way: entries with and
   without a volume, entries with no records, several entries. *)
let prop_bundle_encoded_size =
  QCheck2.Test.make ~name:"Dpapi.bundle_size = length of Dpapi.encode_bundle" ~count:300
    QCheck2.Gen.(list_size (int_bound 5) gen_entry)
    (fun bundle ->
      let buf = Buffer.create 64 in
      Dpapi.encode_bundle buf bundle;
      Dpapi.bundle_size bundle = Buffer.length buf)

(* --- WAP log: in-place fold = substring reference ------------------------------- *)

(* The reference reads each frame the simple way: copy the payload out,
   checksum the copy, decode the copy.  Frame layout: u32 magic, u32
   payload length, u32 checksum, payload. *)
let wap_magic = 0x57415001

let ref_checksum payload =
  String.fold_left (fun h c -> ((h * 33) + Char.code c) land 0x3fffffff) 5381 payload

let ref_decode payload =
  let pos = ref 0 in
  let pnode () = Pnode.of_int (Wire.get_i64 payload pos) in
  match Wire.get_u8 payload pos with
  | 1 ->
      let pnode = pnode () in
      let ino = Wire.get_i64 payload pos in
      let name = Wire.get_string payload pos in
      Wap_log.Map { pnode; ino; name }
  | 2 -> Wap_log.Mkobj { pnode = pnode () }
  | 3 ->
      let txn = if Wire.get_u8 payload pos = 1 then Some (Wire.get_i64 payload pos) else None in
      let bundle = Dpapi.decode_bundle payload pos in
      let data =
        if Wire.get_u8 payload pos = 1 then begin
          let d_pnode = pnode () in
          let d_off = Wire.get_i64 payload pos in
          let d_len = Wire.get_i64 payload pos in
          let d_md5 = Wire.get_string payload pos in
          Some { Wap_log.d_pnode; d_off; d_len; d_md5 }
        end
        else None
      in
      Wap_log.Bundle { txn; bundle; data }
  | n -> Wire.corrupt "bad frame tag %d" n

let ref_parse image =
  let len = String.length image in
  let rec go acc pos =
    let stop () = (List.rev acc, pos) in
    if pos + 12 > len then stop ()
    else begin
      let hp = ref pos in
      let magic = Wire.get_u32 image hp in
      let plen = Wire.get_u32 image hp in
      let sum = Wire.get_u32 image hp in
      if magic <> wap_magic || pos + 12 + plen > len then stop ()
      else
        let payload = String.sub image (pos + 12) plen in
        if ref_checksum payload <> sum then stop ()
        else
          match ref_decode payload with
          | frame -> go (frame :: acc) (pos + 12 + plen)
          | exception Wire.Corrupt _ -> stop ()
    end
  in
  go [] 0

let encode_frames frames =
  let buf = Buffer.create 256 in
  List.iter (Wap_log.encode_frame_into buf) frames;
  Buffer.contents buf

let gen_frame =
  QCheck2.Gen.(
    oneof
      [
        map3
          (fun p ino name -> Wap_log.Map { pnode = Pnode.of_int p; ino; name })
          nat int (string_size ~gen:printable (int_bound 12));
        map (fun p -> Wap_log.Mkobj { pnode = Pnode.of_int p }) nat;
        map3
          (fun txn bundle data -> Wap_log.Bundle { txn; bundle; data })
          (opt nat)
          (list_size (int_bound 3) gen_entry)
          (opt
             (map3
                (fun p (d_off, d_len) d_md5 ->
                  { Wap_log.d_pnode = Pnode.of_int p; d_off; d_len; d_md5 })
                nat (pair nat nat) (string_size (int_bound 16))));
      ])

(* How a well-formed image is damaged before both readers see it. *)
type mangle =
  | Whole
  | Truncate of int  (** keep this many bytes (mod length + 1) *)
  | Flip of int * int  (** xor the byte at this offset with a nonzero mask *)
  | Shorten of int * int
      (** cut bytes off this frame's payload and re-checksum it, so a
          decode in place runs on into the next frame *)

let mangle frames m =
  let encs = List.map (fun f -> encode_frames [ f ]) frames in
  let image = String.concat "" encs in
  let len = String.length image in
  match m with
  | Whole -> image
  | Truncate n -> String.sub image 0 (n mod (len + 1))
  | Flip (at, mask) when len > 0 ->
      let b = Bytes.of_string image in
      let at = at mod len in
      Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 + (mask mod 255))));
      Bytes.to_string b
  | Flip _ -> image
  | Shorten (k, cut) when List.length encs >= 2 ->
      let k = k mod (List.length encs - 1) in
      let enc = List.nth encs k in
      let plen = String.length enc - 12 in
      let payload = String.sub enc 12 (plen - (1 + (cut mod plen))) in
      let header = Buffer.create 12 in
      Wire.put_u32 header wap_magic;
      Wire.put_u32 header (String.length payload);
      Wire.put_u32 header (ref_checksum payload);
      String.concat ""
        (List.mapi (fun i e -> if i = k then Buffer.contents header ^ payload else e) encs)
  | Shorten _ -> image

let gen_mangle =
  QCheck2.Gen.(
    oneof
      [
        return Whole;
        map (fun n -> Truncate n) nat;
        map2 (fun at mask -> Flip (at, mask)) nat nat;
        map2 (fun k cut -> Shorten (k, cut)) nat nat;
      ])

let prop_wap_fold_reference =
  QCheck2.Test.make ~name:"Wap_log.fold = substring reference decoder" ~count:500
    QCheck2.Gen.(pair (list_size (int_bound 8) gen_frame) gen_mangle)
    (fun (frames, m) ->
      let image = mangle frames m in
      let folded, consumed = Wap_log.fold image ~init:[] (fun acc f -> f :: acc) in
      let expect, expect_consumed = ref_parse image in
      String.equal (encode_frames (List.rev folded)) (encode_frames expect)
      && consumed = expect_consumed
      && (m <> Whole || consumed = String.length image))

(* --- distributor invariant 4 under random traffic ----------------------------- *)

type dop = Mk | Disclose of int * int | Anchor of int | Sync of int

let gen_dops =
  QCheck2.Gen.(
    list_size (int_range 5 40)
      (oneof
         [
           pure Mk;
           map2 (fun a b -> Disclose (a, b)) (int_bound 9) (int_bound 9);
           map (fun a -> Anchor a) (int_bound 9);
           map (fun a -> Sync a) (int_bound 9);
         ]))

let prop_distributor_invariant =
  QCheck2.Test.make ~name:"distributor: persisted iff anchored or synced" ~count:80 gen_dops
    (fun dops ->
      let ctx = Ctx.create ~machine:1 in
      let sink = Helpers.sink ctx in
      let d = Distributor.create ~ctx ~lower:(Helpers.sink_endpoint sink) ~default_volume:"v" () in
      let ep = Distributor.endpoint d in
      let objs = ref [||] in
      let persisted_expected = Hashtbl.create 16 in
      let get i =
        if Array.length !objs = 0 then None
        else Some !objs.(i mod Array.length !objs)
      in
      List.iter
        (fun op ->
          match op with
          | Mk -> (
              match ep.pass_mkobj ~volume:None with
              | Ok h -> objs := Array.append !objs [| h |]
              | Error _ -> ())
          | Disclose (a, b) -> (
              match (get a, get b) with
              | Some x, Some y when not (Pnode.equal x.Dpapi.pnode y.Dpapi.pnode) ->
                  (* y depends on x; if y is (or becomes) persisted, x is too *)
                  ignore
                    (Dpapi.disclose ep y [ Record.input_of x.Dpapi.pnode 0 ]
                      : (unit, Dpapi.error) result);
                  if Hashtbl.mem persisted_expected (Pnode.to_int y.Dpapi.pnode) then
                    Hashtbl.replace persisted_expected (Pnode.to_int x.Dpapi.pnode) ()
              | _ -> ())
          | Anchor a -> (
              match get a with
              | Some x ->
                  (* a persistent file depends on x: x and its cached
                     ancestry become persistent *)
                  let f = Dpapi.handle ~volume:"v" (Ctx.fresh ctx) in
                  ignore
                    (Dpapi.disclose ep f [ Record.input_of x.Dpapi.pnode 0 ]
                      : (unit, Dpapi.error) result);
                  (* mark x and transitively everything x's cached records
                     reference; approximate by marking x only and letting
                     Disclose propagate forward — the check below is
                     one-directional (persisted_expected => flushed) *)
                  Hashtbl.replace persisted_expected (Pnode.to_int x.Dpapi.pnode) ()
              | None -> ())
          | Sync a -> (
              match get a with
              | Some x ->
                  ignore (ep.pass_sync x : (unit, Dpapi.error) result);
                  Hashtbl.replace persisted_expected (Pnode.to_int x.Dpapi.pnode) ()
              | None -> ()))
        dops;
      (* every object we expect persistent must be flushed; conversely any
         object never anchored/synced/referenced-by-persistent must still
         be cached *)
      Array.for_all
        (fun (h : Dpapi.handle) ->
          let flushed = not (Distributor.is_cached_unflushed d h.pnode) in
          if Hashtbl.mem persisted_expected (Pnode.to_int h.pnode) then flushed else true)
        !objs)

(* --- ctx: version/birth invariants ------------------------------------------- *)

let prop_ctx_monotone =
  QCheck2.Test.make ~name:"ctx: versions and births are monotone" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (int_bound 4))
    (fun freezes ->
      let ctx = Ctx.create ~machine:1 in
      let objs = Array.init 5 (fun _ -> Ctx.fresh ctx) in
      List.for_all
        (fun i ->
          let p = objs.(i) in
          let v0 = Ctx.current_version ctx p in
          let b0 = Ctx.birth ctx p in
          let v1 = Ctx.freeze ctx p in
          let b1 = Ctx.birth ctx p in
          v1 = v0 + 1 && b1 > b0 && Ctx.birth_at ctx p ~version:v0 < b1)
        freezes)

(* --- the glob matcher against a reference DP matcher ------------------------ *)

(* [m.(i).(j)]: pattern suffix from [i] matches string suffix from [j] *)
let glob_reference p s =
  let np = String.length p and ns = String.length s in
  let m = Array.make_matrix (np + 1) (ns + 1) false in
  m.(np).(ns) <- true;
  for i = np - 1 downto 0 do
    for j = ns downto 0 do
      m.(i).(j) <-
        (match p.[i] with
        | '*' -> m.(i + 1).(j) || (j < ns && m.(i).(j + 1))
        | '?' -> j < ns && m.(i + 1).(j + 1)
        | c -> j < ns && Char.equal s.[j] c && m.(i + 1).(j + 1))
    done
  done;
  m.(0).(0)

let prop_glob_reference =
  QCheck2.Test.make ~name:"pql glob: greedy matcher = DP reference" ~count:1000
    QCheck2.Gen.(
      pair
        (string_size ~gen:(oneofl [ 'a'; 'b'; '*'; '?' ]) (int_bound 8))
        (string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_bound 10)))
    (fun (p, s) -> Bool.equal (Pql_eval.glob_match p s) (glob_reference p s))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pql_parser_total;
      prop_pyth_parser_total;
      prop_sxml_parser_total;
      prop_sxml_roundtrip;
      prop_storage_roundtrip;
      prop_record_encoded_size;
      prop_bundle_encoded_size;
      prop_wap_fold_reference;
      prop_distributor_invariant;
      prop_ctx_monotone;
      prop_glob_reference;
    ]

let test_dot_export () =
  let db, _, _, _, out, _ = Test_pql.sample_db () in
  let dot = Provdot.to_dot db in
  check tbool "mentions nodes" true
    (String.length dot > 100
    && String.length (Provdot.to_dot ~roots:[ out ] db) <= String.length dot);
  (* cone export excludes the bystander *)
  let cone = Provdot.to_dot ~roots:[ out ] db in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check tbool "cone has the process" true (contains cone "kepler");
  check tbool "cone excludes bystander" false (contains cone "bystander")

let suite = Alcotest.test_case "provdot export" `Quick test_dot_export :: qcheck_cases
