(* Tests of the small substrates: VFS path helpers and the Wire
   serialization primitives, including an ext3-vs-model property test
   that drives random namespace/data operations against a trivial
   in-memory oracle. *)

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tstr = Alcotest.string

(* --- wire ------------------------------------------------------------------ *)

let test_wire_roundtrips () =
  let buf = Buffer.create 64 in
  Wire.put_u8 buf 200;
  Wire.put_u32 buf 123456;
  Wire.put_i64 buf (-42);
  Wire.put_string buf "hello";
  Wire.put_list buf Wire.put_string [ "a"; "bb"; "" ];
  let s = Buffer.contents buf in
  let pos = ref 0 in
  check tint "u8" 200 (Wire.get_u8 s pos);
  check tint "u32" 123456 (Wire.get_u32 s pos);
  check tint "i64" (-42) (Wire.get_i64 s pos);
  check tstr "string" "hello" (Wire.get_string s pos);
  check (Alcotest.list tstr) "list" [ "a"; "bb"; "" ] (Wire.get_list Wire.get_string s pos);
  check tint "fully consumed" (String.length s) !pos

let test_wire_corruption () =
  let expect_corrupt f =
    match f () with
    | exception Wire.Corrupt _ -> ()
    | _ -> Alcotest.fail "expected Wire.Corrupt"
  in
  expect_corrupt (fun () -> Wire.get_u32 "ab" (ref 0));
  expect_corrupt (fun () -> Wire.get_i64 "abcd" (ref 0));
  expect_corrupt (fun () ->
      let buf = Buffer.create 8 in
      Wire.put_string buf "hello world";
      Wire.get_string (String.sub (Buffer.contents buf) 0 8) (ref 0));
  (match Wire.put_u8 (Buffer.create 1) 300 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "u8 range check")

(* --- wire properties (pinned seed) ---------------------------------------- *)

(* A tagged heterogeneous value so one generated list exercises every
   put_*/get_* pair in a single buffer, in order. *)
type wire_value =
  | Wu8 of int
  | Wu32 of int
  | Wi64 of int
  | Wstr of string
  | Wlist of string list

let gen_wire_value =
  let open QCheck2.Gen in
  oneof
    [
      map (fun n -> Wu8 n) (int_bound 0xff);
      map (fun n -> Wu32 n) (int_bound 0xffffffff);
      map (fun n -> Wi64 n) (map2 (fun a b -> if b then a else -a) big_nat bool);
      map (fun s -> Wstr s) (string_size (int_bound 64));
      map (fun l -> Wlist l) (list_size (int_bound 8) (string_size (int_bound 16)));
    ]

let gen_wire_values = QCheck2.Gen.(list_size (int_range 1 40) gen_wire_value)

let encode_values vs =
  let buf = Buffer.create 256 in
  List.iter
    (function
      | Wu8 n -> Wire.put_u8 buf n
      | Wu32 n -> Wire.put_u32 buf n
      | Wi64 n -> Wire.put_i64 buf n
      | Wstr s -> Wire.put_string buf s
      | Wlist l -> Wire.put_list buf Wire.put_string l)
    vs;
  Buffer.contents buf

let decode_values s pos vs =
  List.map
    (function
      | Wu8 _ -> Wu8 (Wire.get_u8 s pos)
      | Wu32 _ -> Wu32 (Wire.get_u32 s pos)
      | Wi64 _ -> Wi64 (Wire.get_i64 s pos)
      | Wstr _ -> Wstr (Wire.get_string s pos)
      | Wlist _ -> Wlist (Wire.get_list Wire.get_string s pos))
    vs

let prop_wire_roundtrip =
  QCheck2.Test.make ~name:"wire: randomized put_*/get_* round-trip" ~count:500 gen_wire_values
    (fun vs ->
      let s = encode_values vs in
      let pos = ref 0 in
      let back = decode_values s pos vs in
      back = vs && !pos = String.length s)

let prop_wire_truncation =
  QCheck2.Test.make ~name:"wire: any strict truncation raises Corrupt" ~count:500
    QCheck2.Gen.(pair gen_wire_values (int_bound 10_000))
    (fun (vs, cut) ->
      let s = encode_values vs in
      (* every encoding here is non-empty (u8/bool = 1 byte minimum) *)
      let cut = cut mod String.length s in
      let short = String.sub s 0 cut in
      match decode_values short (ref 0) vs with
      | exception Wire.Corrupt _ -> true
      | _ -> false)

let prop_wire_garbage =
  (* random bytes decoded as a list of strings: either a clean Corrupt or
     an in-bounds decode — never an out-of-range access or other crash *)
  QCheck2.Test.make ~name:"wire: garbage input fails with Corrupt only" ~count:500
    QCheck2.Gen.(string_size (int_bound 128))
    (fun s ->
      let pos = ref 0 in
      match Wire.get_list Wire.get_string s pos with
      | exception Wire.Corrupt _ -> true
      | _ -> !pos <= String.length s)

(* --- path helpers ------------------------------------------------------------ *)

let test_split_path () =
  check (Alcotest.list tstr) "basic" [ "a"; "b"; "c" ] (Vfs.split_path "/a/b/c");
  check (Alcotest.list tstr) "doubled slashes" [ "a"; "b" ] (Vfs.split_path "//a///b/");
  check (Alcotest.list tstr) "dot segments dropped" [ "a" ] (Vfs.split_path "/./a/.");
  check (Alcotest.list tstr) "empty" [] (Vfs.split_path "/")

let test_path_helpers_on_ext3 () =
  let _disk, fs = Helpers.fresh_ext3 () in
  let ops = Ext3.ops fs in
  let dir = Helpers.ok_fs (Vfs.mkdir_p ops "/x/y/z") in
  check tbool "mkdir_p idempotent" true (Helpers.ok_fs (Vfs.mkdir_p ops "/x/y/z") = dir);
  let parent, leaf = Helpers.ok_fs (Vfs.parent_and_leaf ops "/x/y/z/file.txt") in
  check tstr "leaf" "file.txt" leaf;
  check tbool "parent is z" true (parent = dir);
  (match Vfs.parent_and_leaf ops "/" with
  | Error Vfs.EINVAL -> ()
  | _ -> Alcotest.fail "root has no leaf");
  (* write_file creates, then truncates on rewrite *)
  let ino = Helpers.ok_fs (Vfs.write_file ops "/x/y/z/file.txt" "0123456789") in
  let _ = Helpers.ok_fs (Vfs.write_file ops "/x/y/z/file.txt" "abc") in
  let st = Helpers.ok_fs (ops.getattr ino) in
  check tint "rewrite truncates" 3 st.Vfs.st_size

(* --- ext3 vs an in-memory oracle (model-based property test) --------------- *)

(* The model: path -> contents.  Operations chosen to keep both sides in
   the same state space (no hard links, flat two-level namespace). *)
type op =
  | Write of int * string (* file index, data *)
  | Delete of int
  | Rename of int * int
  | Check of int

let gen_ops =
  let open QCheck2.Gen in
  let file = int_bound 9 in
  let data = map (fun (seed, len) -> Helpers.payload ~seed ~len:(len + 1)) (pair (int_bound 1000) (int_bound 9000)) in
  list_size (int_range 5 60)
    (oneof
       [
         map2 (fun f d -> Write (f, d)) file data;
         map (fun f -> Delete f) file;
         map2 (fun a b -> Rename (a, b)) file file;
         map (fun f -> Check f) file;
       ])

let path_of i = Printf.sprintf "/d%d/f%d" (i mod 3) i

let prop_ext3_matches_model =
  QCheck2.Test.make ~name:"ext3 agrees with an in-memory model" ~count:60 gen_ops (fun ops_list ->
      let _disk, fs = Helpers.fresh_ext3 () in
      let ops = Ext3.ops fs in
      (* pre-create the directories so rename targets always resolve *)
      List.iter
        (fun d ->
          ignore (Vfs.mkdir_p ops (Printf.sprintf "/d%d" d) : (Vfs.ino, Vfs.errno) result))
        [ 0; 1; 2 ];
      let model : (int, string) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Write (f, d) -> (
              match Vfs.write_file ~mkparents:true ops (path_of f) d with
              | Ok _ -> Hashtbl.replace model f d
              | Error _ -> ok := false)
          | Delete f -> (
              let expected = Hashtbl.mem model f in
              match Vfs.remove_path ops (path_of f) with
              | Ok () ->
                  if not expected then ok := false;
                  Hashtbl.remove model f
              | Error Vfs.ENOENT -> if expected then ok := false
              | Error _ -> ok := false)
          | Rename (a, b) -> (
              let expected = Hashtbl.mem model a in
              match Vfs.rename_path ops (path_of a) (path_of b) with
              | Ok () ->
                  if not expected then ok := false
                  else begin
                    Hashtbl.replace model b (Hashtbl.find model a);
                    if a <> b then Hashtbl.remove model a
                  end
              | Error Vfs.ENOENT -> if expected then ok := false
              | Error _ -> ok := false)
          | Check f -> (
              match (Vfs.read_file ops (path_of f), Hashtbl.find_opt model f) with
              | Ok data, Some expected -> if not (String.equal data expected) then ok := false
              | Error Vfs.ENOENT, None -> ()
              | Ok _, None | Error _, Some _ | Error _, None -> ok := false))
        ops_list;
      (* final full sweep *)
      Hashtbl.iter
        (fun f expected ->
          match Vfs.read_file ops (path_of f) with
          | Ok data -> if not (String.equal data expected) then ok := false
          | Error _ -> ok := false)
        model;
      !ok)

(* the same sweep must hold after a crash + journal replay *)
let prop_ext3_replay_matches_model =
  QCheck2.Test.make ~name:"ext3 journal replay preserves the model" ~count:30 gen_ops
    (fun ops_list ->
      let clock = Simdisk.Clock.create () in
      let disk = Simdisk.Disk.create ~clock () in
      let fs = Ext3.format disk in
      let ops = Ext3.ops fs in
      let model : (int, string) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun op ->
          match op with
          | Write (f, d) -> (
              match Vfs.write_file ~mkparents:true ops (path_of f) d with
              | Ok _ -> Hashtbl.replace model f d
              | Error _ -> ())
          | Delete f -> (
              match Vfs.remove_path ops (path_of f) with
              | Ok () -> Hashtbl.remove model f
              | Error _ -> ())
          | Rename (a, b) -> (
              match Vfs.rename_path ops (path_of a) (path_of b) with
              | Ok () ->
                  (match Hashtbl.find_opt model a with
                  | Some d ->
                      Hashtbl.replace model b d;
                      if a <> b then Hashtbl.remove model a
                  | None -> ())
              | Error _ -> ())
          | Check _ -> ())
        ops_list;
      (* crash + remount *)
      Simdisk.Disk.crash disk;
      Simdisk.Disk.revive disk;
      let ops2 = Ext3.ops (Ext3.mount disk) in
      Hashtbl.fold
        (fun f expected acc ->
          acc
          &&
          match Vfs.read_file ops2 (path_of f) with
          | Ok data -> String.equal data expected
          | Error _ -> false)
        model true)

(* Random writes, reads and truncates over a four-page cache, each read
   compared with a pure model of the file.  The model keeps every byte
   ever written: ext3sim only journals a new size on truncate and keeps
   the blocks, so growing the file again exposes them, as here. *)
type cache_op =
  | C_write of int * int * int * int (* file, off, len, payload seed *)
  | C_read of int * int * int (* file, off, len *)
  | C_truncate of int * int (* file, size *)

let show_cache_op = function
  | C_write (f, off, len, seed) -> Printf.sprintf "write f%d off=%d len=%d seed=%d" f off len seed
  | C_read (f, off, len) -> Printf.sprintf "read f%d off=%d len=%d" f off len
  | C_truncate (f, size) -> Printf.sprintf "truncate f%d %d" f size

let gen_cache_op =
  let open QCheck2.Gen in
  let bs = Simdisk.Disk.block_size in
  let file = int_bound 2 in
  frequency
    [
      (* aligned whole blocks, one to three of them *)
      ( 3,
        map4 (fun f k m seed -> C_write (f, k * bs, m * bs, seed)) file (int_bound 6) (int_range 1 3)
          (int_bound 1_000_000) );
      (* unaligned, possibly spanning blocks *)
      (3, map4 (fun f off len seed -> C_write (f, off, len, seed)) file (int_bound 28_000)
            (int_range 1 9000) (int_bound 1_000_000));
      (* the aligned one-block read every 4 KB read syscall is *)
      (2, map2 (fun f k -> C_read (f, k * bs, bs)) file (int_bound 7));
      (3, map3 (fun f off len -> C_read (f, off, len)) file (int_bound 30_000) (int_bound 12_000));
      (1, map2 (fun f size -> C_truncate (f, size)) file (int_bound 30_000));
    ]

type model_file = { mutable backing : Bytes.t; mutable size : int }

let model_read m ~off ~len =
  let len = max 0 (min len (m.size - off)) in
  String.init len (fun k ->
      let p = off + k in
      if p < Bytes.length m.backing then Bytes.get m.backing p else '\000')

let model_write m ~off data =
  let fin = off + String.length data in
  if fin > Bytes.length m.backing then begin
    let b = Bytes.make fin '\000' in
    Bytes.blit m.backing 0 b 0 (Bytes.length m.backing);
    m.backing <- b
  end;
  Bytes.blit_string data 0 m.backing off (String.length data);
  m.size <- max m.size fin

let prop_page_cache_model =
  QCheck2.Test.make ~name:"ext3: page cache agrees with a byte model, live and remounted"
    ~count:150
    ~print:(fun ops -> String.concat "\n" (List.map show_cache_op ops))
    QCheck2.Gen.(list_size (int_range 1 40) gen_cache_op)
    (fun program ->
      let clock = Simdisk.Clock.create () in
      let disk = Simdisk.Disk.create ~registry:(Telemetry.create ()) ~clock () in
      let fs = Ext3.format disk in
      Ext3.set_cache_capacity fs 4;
      let ops = Ext3.ops fs in
      let inos =
        Array.init 3 (fun f ->
            Helpers.ok_fs (Vfs.create_path ops (Printf.sprintf "/f%d" f) Vfs.Regular))
      in
      let model = Array.init 3 (fun _ -> { backing = Bytes.empty; size = 0 }) in
      let agrees ops f ~off ~len =
        String.equal (model_read model.(f) ~off ~len)
          (Helpers.ok_fs (ops.Vfs.read inos.(f) ~off ~len))
      in
      let live =
        List.for_all
          (function
            | C_write (f, off, len, seed) ->
                let data = Helpers.payload ~seed ~len in
                Helpers.ok_fs (ops.write inos.(f) ~off data);
                model_write model.(f) ~off data;
                true
            | C_read (f, off, len) -> agrees ops f ~off ~len
            | C_truncate (f, size) ->
                Helpers.ok_fs (ops.truncate inos.(f) size);
                model.(f).size <- size;
                true)
          program
      in
      Simdisk.Disk.crash disk;
      Simdisk.Disk.revive disk;
      let fs2 = Ext3.mount disk in
      Ext3.set_cache_capacity fs2 4;
      let ops2 = Ext3.ops fs2 in
      let whole ops f = agrees ops f ~off:0 ~len:model.(f).size in
      let block ops f = agrees ops f ~off:Simdisk.Disk.block_size ~len:Simdisk.Disk.block_size in
      live
      && List.for_all (fun f -> whole ops f && whole ops2 f && block ops2 f && block ops2 f) [ 0; 1; 2 ])

let qcheck_cases =
  (* the wire and page-cache properties run under a pinned seed so CI
     failures replay *)
  List.map
    (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t)
    [ prop_wire_roundtrip; prop_wire_truncation; prop_wire_garbage; prop_page_cache_model ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_ext3_matches_model; prop_ext3_replay_matches_model ]

let suite =
  [
    Alcotest.test_case "wire roundtrips" `Quick test_wire_roundtrips;
    Alcotest.test_case "wire corruption detected" `Quick test_wire_corruption;
    Alcotest.test_case "split_path" `Quick test_split_path;
    Alcotest.test_case "path helpers on ext3" `Quick test_path_helpers_on_ext3;
  ]
  @ qcheck_cases
