(* Tests of the storage substrates: the simulated disk (cost model, crash
   injection), ext3sim (semantics + journal replay), Lasagna (stacking,
   DPAPI, WAP ordering) and crash recovery. *)

open Pass_core
module Disk = Simdisk.Disk
module Clock = Simdisk.Clock

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tstr = Alcotest.string

(* --- disk ---------------------------------------------------------------- *)

let test_disk_rw () =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let b = String.make Disk.block_size 'x' in
  Disk.write_block disk 100 b;
  check tstr "block roundtrip" b (Disk.read_block disk 100);
  check tstr "unwritten reads zeros" (String.make Disk.block_size '\000') (Disk.read_block disk 101)

let test_disk_block_contract () =
  (* a shared block (a caller's string, or one the device handed out) is
     never mutated: a block in hand outlives later writes to the same
     block number, whole or partial, including a partial write the device
     patches in place *)
  let bs = Disk.block_size in
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let a = String.make bs 'a' and b = String.make bs 'b' in
  Disk.write_block disk 7 a;
  let held = Disk.read_block disk 7 in
  Disk.write_block disk 7 b;
  (* the first partial write copies the caller's [b]; the second patches
     that copy, which nobody holds, in place *)
  Disk.write_bytes disk ~off:((7 * bs) + 10) "cc";
  Disk.write_bytes disk ~off:((7 * bs) + 20) "dd";
  check tstr "held block unchanged" (String.make bs 'a') held;
  check tstr "caller's strings unchanged" (String.make bs 'a' ^ String.make bs 'b') (a ^ b);
  let merged = "bbbbbbbbbbccbbbbbbbbdd" ^ String.make (bs - 22) 'b' in
  let stored = Disk.stored_block disk 7 in
  check tstr "both patches stored" merged stored;
  Disk.write_bytes disk ~off:((7 * bs) + 30) "ee";
  Disk.write_bytes disk ~off:((7 * bs) + 40) "ff";
  check tstr "stored_block result unchanged by later partial writes" merged stored;
  check tstr "new contents stored"
    (String.sub merged 0 30 ^ "ee" ^ String.sub merged 32 8 ^ "ff" ^ String.sub merged 42 (bs - 42))
    (Disk.read_block disk 7);
  let hole = Disk.read_block disk 8 in
  Disk.write_bytes disk ~off:(8 * bs) "z";
  Disk.write_bytes disk ~off:((8 * bs) + 1) "y";
  check tstr "held hole still zeros" (String.make bs '\000') hole;
  check tstr "hole patched twice" ("zy" ^ String.make (bs - 2) '\000') (Disk.read_block disk 8)

let test_disk_read_into () =
  (* read_into is read_bytes into a caller's buffer: same bytes, same
     charges *)
  let mk () =
    let clock = Clock.create () in
    let registry = Telemetry.create () in
    let disk = Disk.create ~registry ~clock () in
    Disk.write_bytes disk ~off:5000 (Helpers.payload ~seed:4 ~len:20_000);
    (clock, registry, disk)
  in
  let c1, r1, d1 = mk () and c2, r2, d2 = mk () in
  let buf = Bytes.make 30_000 '#' in
  List.iter
    (fun (off, len) ->
      Disk.read_into d1 ~off ~len buf;
      let label = Printf.sprintf "read_into %d+%d" off len in
      check tstr label (Disk.read_bytes d2 ~off ~len) (Bytes.sub_string buf 0 len);
      check tint (label ^ ": clock") (Clock.now c2) (Clock.now c1))
    [ (0, 0); (5000, 12); (4090, 10); (8192, 4096); (6000, 17_000); (0, 30_000) ];
  List.iter
    (fun name -> check tint name (Helpers.counter r2 name) (Helpers.counter r1 name))
    [ "disk.reads"; "disk.bytes_read"; "disk.seeks"; "disk.seek_ns"; "disk.transfer_ns" ];
  let small = Bytes.make 20 '#' in
  Disk.read_into d1 ~off:5000 ~len:12 small;
  check tstr "only the first len bytes are written"
    (Disk.read_bytes d2 ~off:5000 ~len:12 ^ "########")
    (Bytes.to_string small);
  Alcotest.check_raises "len beyond the buffer" (Invalid_argument "Disk.read_into") (fun () ->
      Disk.read_into d1 ~off:0 ~len:30_001 buf)

let test_disk_bytes_api () =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let data = Helpers.payload ~seed:1 ~len:10_000 in
  Disk.write_bytes disk ~off:12345 data;
  check tstr "byte roundtrip spanning blocks" data (Disk.read_bytes disk ~off:12345 ~len:10_000)

let test_disk_charges_time () =
  let clock = Clock.create () in
  let registry = Telemetry.create () in
  let disk = Disk.create ~registry ~clock () in
  let seeks () = Helpers.counter registry "disk.seeks" in
  Disk.write_bytes disk ~off:0 (String.make 4096 'a');
  let t1 = Clock.now clock in
  check tbool "I/O advanced the clock" true (t1 > 0);
  (* sequential write: next block, no seek *)
  let seeks1 = seeks () in
  Disk.write_bytes disk ~off:4096 (String.make 4096 'b');
  check tint "sequential write seeks" seeks1 (seeks ());
  (* far write: seek *)
  Disk.write_bytes disk ~off:(4096 * 1_000_000) (String.make 4096 'c');
  check tbool "far write seeks" true (seeks () > seeks1)

let test_disk_seek_cost_monotone () =
  (* a longer seek costs more time *)
  let run distance =
    let clock = Clock.create () in
    let disk = Disk.create ~clock () in
    Disk.write_bytes disk ~off:0 (String.make 4096 'a');
    let before = Clock.now clock in
    Disk.write_bytes disk ~off:(4096 * distance) (String.make 4096 'b');
    Clock.now clock - before
  in
  check tbool "longer seek costs more" true (run 10_000_000 > run 1_000)

let test_disk_crash () =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  Disk.write_bytes disk ~off:0 (String.make 4096 'a');
  Disk.schedule_crash disk ~after_writes:2;
  Disk.write_bytes disk ~off:4096 (String.make 4096 'b');
  Disk.write_bytes disk ~off:8192 (String.make 4096 'c');
  Alcotest.check_raises "third write crashes" Disk.Crashed (fun () ->
      Disk.write_bytes disk ~off:12288 (String.make 4096 'd'));
  check tbool "device is down" true (Disk.is_crashed disk);
  Disk.revive disk;
  check tstr "pre-crash data persists" (String.make 4096 'b')
    (Disk.read_bytes disk ~off:4096 ~len:4096);
  check tstr "post-crash data lost" (String.make 4096 '\000')
    (Disk.read_bytes disk ~off:12288 ~len:4096)

(* --- ext3 ---------------------------------------------------------------- *)

let test_ext3_basics () =
  let _disk, fs = Helpers.fresh_ext3 () in
  let ops = Ext3.ops fs in
  let ino = Helpers.ok_fs (Vfs.write_file ~mkparents:true ops "/a/b/hello.txt" "hello world") in
  check tbool "ino allocated" true (ino > 0);
  check tstr "read back" "hello world" (Helpers.ok_fs (Vfs.read_file ops "/a/b/hello.txt"));
  let st = Helpers.ok_fs (ops.getattr ino) in
  check tint "size" 11 st.Vfs.st_size;
  check tbool "dir listing" true
    (List.mem "hello.txt" (Helpers.ok_fs (ops.readdir (Helpers.ok_fs (Vfs.lookup_path ops "/a/b")))))

let test_ext3_errors () =
  let _disk, fs = Helpers.fresh_ext3 () in
  let ops = Ext3.ops fs in
  (match Vfs.read_file ops "/nope" with
  | Error Vfs.ENOENT -> ()
  | _ -> Alcotest.fail "expected ENOENT");
  let _ = Helpers.ok_fs (Vfs.write_file ops "/f" "x") in
  (match Vfs.create_path ops "/f" Vfs.Regular with
  | Error Vfs.EEXIST -> ()
  | _ -> Alcotest.fail "expected EEXIST");
  let _ = Helpers.ok_fs (Vfs.mkdir_p ops "/d/sub") in
  (match Vfs.remove_path ops "/d" with
  | Error Vfs.ENOTEMPTY -> ()
  | _ -> Alcotest.fail "expected ENOTEMPTY")

let test_ext3_rename_overwrites () =
  let _disk, fs = Helpers.fresh_ext3 () in
  let ops = Ext3.ops fs in
  let _ = Helpers.ok_fs (Vfs.write_file ops "/orig" "old-contents") in
  let _ = Helpers.ok_fs (Vfs.write_file ops "/tmp" "new-contents") in
  Helpers.ok_fs (Vfs.rename_path ops "/tmp" "/orig");
  check tstr "rename replaced target" "new-contents" (Helpers.ok_fs (Vfs.read_file ops "/orig"));
  (match Vfs.lookup_path ops "/tmp" with
  | Error Vfs.ENOENT -> ()
  | _ -> Alcotest.fail "source gone after rename")

let test_ext3_sparse_and_offsets () =
  let _disk, fs = Helpers.fresh_ext3 () in
  let ops = Ext3.ops fs in
  let ino = Helpers.ok_fs (Vfs.create_path ops "/sparse" Vfs.Regular) in
  Helpers.ok_fs (ops.write ino ~off:10_000 "end");
  let st = Helpers.ok_fs (ops.getattr ino) in
  check tint "size extends" 10_003 st.Vfs.st_size;
  let hole = Helpers.ok_fs (ops.read ino ~off:5_000 ~len:10) in
  check tstr "hole reads zeros" (String.make 10 '\000') hole;
  check tstr "tail" "end" (Helpers.ok_fs (ops.read ino ~off:10_000 ~len:3))

let test_ext3_large_file () =
  let _disk, fs = Helpers.fresh_ext3 () in
  let ops = Ext3.ops fs in
  let data = Helpers.payload ~seed:9 ~len:(1 lsl 20) in
  let _ = Helpers.ok_fs (Vfs.write_file ops "/big" data) in
  check tbool "1MB roundtrip" true (String.equal data (Helpers.ok_fs (Vfs.read_file ops "/big")))

let test_ext3_journal_replay () =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let fs = Ext3.format disk in
  let ops = Ext3.ops fs in
  let _ = Helpers.ok_fs (Vfs.write_file ~mkparents:true ops "/dir/f1" "one") in
  let _ = Helpers.ok_fs (Vfs.write_file ~mkparents:true ops "/dir/f2" "two") in
  Helpers.ok_fs (Vfs.remove_path ops "/dir/f1");
  (* crash and remount *)
  Disk.crash disk;
  Disk.revive disk;
  let fs2 = Ext3.mount disk in
  let ops2 = Ext3.ops fs2 in
  check tstr "replayed data" "two" (Helpers.ok_fs (Vfs.read_file ops2 "/dir/f2"));
  (match Vfs.read_file ops2 "/dir/f1" with
  | Error Vfs.ENOENT -> ()
  | _ -> Alcotest.fail "unlink replayed")

let test_ext3_replay_after_many_ops () =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let fs = Ext3.format disk in
  let ops = Ext3.ops fs in
  for i = 0 to 99 do
    let _ =
      Helpers.ok_fs
        (Vfs.write_file ~mkparents:true ops
           (Printf.sprintf "/d%d/file%d" (i mod 7) i)
           (Helpers.payload ~seed:i ~len:(100 + (i * 13))))
    in
    ()
  done;
  let fs2 = Ext3.mount disk in
  let ops2 = Ext3.ops fs2 in
  for i = 0 to 99 do
    let path = Printf.sprintf "/d%d/file%d" (i mod 7) i in
    check tbool ("replay " ^ path) true
      (String.equal
         (Helpers.payload ~seed:i ~len:(100 + (i * 13)))
         (Helpers.ok_fs (Vfs.read_file ops2 path)))
  done

let test_ext3_journal_compaction () =
  (* a tiny journal forces snapshot compaction; state and data must
     survive it, including across a remount *)
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let fs = Ext3.format ~jblocks:2 disk in
  let ops = Ext3.ops fs in
  for i = 0 to 120 do
    let _ =
      Helpers.ok_fs
        (Vfs.write_file ~mkparents:true ops
           (Printf.sprintf "/d/f%d" i)
           (Helpers.payload ~seed:i ~len:(50 + i)))
    in
    ()
  done;
  (* everything still readable post-compaction *)
  for i = 0 to 120 do
    check tbool (Printf.sprintf "f%d intact" i) true
      (String.equal
         (Helpers.payload ~seed:i ~len:(50 + i))
         (Helpers.ok_fs (Vfs.read_file ops (Printf.sprintf "/d/f%d" i))))
  done;
  (* and after replaying the compacted journal *)
  let ops2 = Ext3.ops (Ext3.mount ~jblocks:2 disk) in
  for i = 0 to 120 do
    check tbool (Printf.sprintf "f%d replayed" i) true
      (String.equal
         (Helpers.payload ~seed:i ~len:(50 + i))
         (Helpers.ok_fs (Vfs.read_file ops2 (Printf.sprintf "/d/f%d" i))))
  done

let test_ext3_large_journal_layout () =
  (* a journal larger than the default must push the data region past
     its own end: fill it beyond where the default layout's data region
     starts and the file written first must still read back intact *)
  let default_jblocks = 16_384 in
  let jblocks = default_jblocks + 64 in
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let fs = Ext3.format ~jblocks disk in
  let ops = Ext3.ops fs in
  let data = Helpers.payload ~seed:3 ~len:(3 * Disk.block_size) in
  let _ = Helpers.ok_fs (Vfs.write_file ops "/data" data) in
  (* each rename journals the long name once: ~32 KB per frame *)
  let _ = Helpers.ok_fs (Vfs.write_file ops "/x" "") in
  let names = [| "/x"; "/" ^ String.make 32_768 'n' |] in
  let old_data_start = default_jblocks * Disk.block_size in
  let k = ref 0 in
  while Ext3.journal_bytes_written fs <= old_data_start + Disk.block_size do
    Helpers.ok_fs (Vfs.rename_path ops names.(!k land 1) names.((!k + 1) land 1));
    incr k
  done;
  check tbool "journal never compacted" true
    (Ext3.journal_bytes_written fs < jblocks * Disk.block_size);
  Ext3.set_cache_capacity fs 4096 (* drop the cached pages: read the medium *);
  check tbool "data intact before mount" true
    (String.equal data (Helpers.ok_fs (Vfs.read_file ops "/data")));
  let ops2 = Ext3.ops (Ext3.mount ~jblocks disk) in
  check tbool "data intact after mount" true
    (String.equal data (Helpers.ok_fs (Vfs.read_file ops2 "/data")))

(* A torn or corrupted block write damages only the medium: the page
   cache keeps the bytes the caller wrote, and a read that misses the
   cache (after eviction or a remount) sees the damage.  A later partial
   write merges into each copy separately. *)
let test_ext3_fault_damage () =
  let bs = Disk.block_size in
  let old = Helpers.payload ~seed:1 ~len:bs in
  let written = Helpers.payload ~seed:2 ~len:bs in
  let patch = Helpers.payload ~seed:3 ~len:100 in
  let patched s =
    let b = Bytes.of_string s in
    Bytes.blit_string patch 0 b 1000 100;
    Bytes.to_string b
  in
  let flipped =
    let b = Bytes.of_string written in
    Bytes.set b (bs / 2) (Char.chr (Char.code written.[bs / 2] lxor 0xff));
    Bytes.to_string b
  in
  let torn = String.sub written 0 (bs / 2) ^ String.sub old (bs / 2) (bs / 2) in
  List.iter
    (fun (kind, spec, damaged) ->
      let clock = Clock.create () in
      let disk = Disk.create ~registry:(Telemetry.create ()) ~clock () in
      let fs = Ext3.format disk in
      let ops = Ext3.ops fs in
      let ino = Helpers.ok_fs (Vfs.write_file ops "/f" old) in
      let read () = Helpers.ok_fs (ops.read ino ~off:0 ~len:bs) in
      (* the file already spans the block, so the overwrite is exactly
         one block write: no extent or size frame *)
      Disk.set_fault disk (Fault.plan ~registry:(Telemetry.create ()) ~spec ~seed:1 ());
      Helpers.ok_fs (ops.write ino ~off:0 written);
      Disk.set_fault disk Fault.none;
      check tstr (kind ^ ": cached read") written (read ());
      Helpers.ok_fs (ops.write ino ~off:1000 patch);
      check tstr (kind ^ ": cached read after patch") (patched written) (read ());
      Ext3.set_cache_capacity fs 4096;
      check tstr (kind ^ ": read after eviction") (patched damaged) (read ());
      let ops2 = Ext3.ops (Ext3.mount disk) in
      check tstr (kind ^ ": read after remount") (patched damaged)
        (Helpers.ok_fs (ops2.read ino ~off:0 ~len:bs)))
    [
      ("torn write", { Fault.quiet with torn_write = 1000 }, torn);
      ("corrupt sector", { Fault.quiet with corrupt_sector = 1000 }, flipped);
    ]

(* --- simulated-cost golden ------------------------------------------------- *)

(* A fixed ext3+Lasagna script whose simulated clock, disk counters and
   page-cache counters are pinned to exact values.  A host-only change to
   the data path (copies, sharing, allocation) must leave every one of
   them where it is; a change that moves simulated time fails here. *)
let test_sim_cost_golden () =
  let registry = Telemetry.create () in
  let clock = Clock.create () in
  let disk = Disk.create ~registry ~clock () in
  let ext3 = Ext3.format disk in
  Ext3.set_cache_capacity ext3 8;
  let ctx = Ctx.create ~machine:1 in
  let lasagna =
    Lasagna.create ~registry ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0"
      ~charge:(Clock.advance clock) ()
  in
  let ops = Lasagna.ops lasagna in
  let path i = Printf.sprintf "/d%d/f%d" (i mod 3) i in
  let len i = 1000 + (i * 7000) in
  let inos =
    List.init 6 (fun i ->
        Helpers.ok_fs
          (Vfs.write_file ~mkparents:true ops (path i) (Helpers.payload ~seed:i ~len:(len i))))
  in
  List.iteri
    (fun i ino ->
      (* append, aligned one-block overwrite, unaligned patch *)
      Helpers.ok_fs (ops.write ino ~off:(len i) (Helpers.payload ~seed:(100 + i) ~len:3000));
      Helpers.ok_fs (ops.write ino ~off:4096 (Helpers.payload ~seed:(200 + i) ~len:4096));
      Helpers.ok_fs (ops.write ino ~off:5000 (Helpers.payload ~seed:(300 + i) ~len:100)))
    inos;
  for round = 0 to 1 do
    List.iter
      (fun ino ->
        let _ : string = Helpers.ok_fs (ops.read ino ~off:0 ~len:4096) in
        let _ : string = Helpers.ok_fs (ops.read ino ~off:(4096 * round) ~len:9000) in
        ())
      inos
  done;
  Helpers.ok_fs (Vfs.rename_path ops (path 1) "/d1/renamed");
  Helpers.ok_fs (Vfs.remove_path ops (path 2));
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok_fs (Lasagna.file_handle lasagna (List.nth inos 3)) in
  let _ : int =
    Helpers.ok
      (ep.pass_write h ~off:8192 ~data:(Some (Helpers.payload ~seed:7 ~len:5000))
         [ Dpapi.entry h [ Record.name "f3" ] ])
  in
  Disk.crash disk;
  Disk.revive disk;
  let ext3' = Ext3.mount disk in
  Ext3.set_cache_capacity ext3' 8;
  let lower = Ext3.ops ext3' in
  List.iter
    (fun p -> ignore (Helpers.ok_fs (Vfs.read_file lower p) : string))
    [ path 0; "/d1/renamed"; path 4; path 5; path 3; path 3 ];
  let disk_counter name = (name, Helpers.counter registry ("disk." ^ name)) in
  let got =
    [
      ("clock_ns", Clock.now clock);
      disk_counter "reads";
      disk_counter "writes";
      disk_counter "bytes_read";
      disk_counter "bytes_written";
      disk_counter "seeks";
      disk_counter "seek_ns";
      disk_counter "transfer_ns";
      ("cache_hits", fst (Ext3.cache_stats ext3));
      ("cache_misses", snd (Ext3.cache_stats ext3));
      ("remount_cache_hits", fst (Ext3.cache_stats ext3'));
      ("remount_cache_misses", snd (Ext3.cache_stats ext3'));
    ]
  in
  let want =
    [
      ("clock_ns", 76_914_397);
      ("reads", 156);
      ("writes", 107);
      ("bytes_read", 638_976);
      ("bytes_written", 438_272);
      ("seeks", 11);
      ("seek_ns", 66_135_877);
      ("transfer_ns", 7_670_000);
      ("cache_hits", 9);
      ("cache_misses", 35);
      ("remount_cache_hits", 7);
      ("remount_cache_misses", 30);
    ]
  in
  List.iter2 (fun (k, w) (_, g) -> check tint k w g) want got

(* --- lasagna ------------------------------------------------------------- *)

let fresh_lasagna () =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let ext3 = Ext3.format disk in
  let ctx = Ctx.create ~machine:1 in
  let lasagna =
    Lasagna.create ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0" ~charge:(Clock.advance clock) ()
  in
  (clock, disk, ext3, ctx, lasagna)

let test_lasagna_passthrough () =
  let _clock, _disk, _ext3, _ctx, lasagna = fresh_lasagna () in
  let ops = Lasagna.ops lasagna in
  let _ = Helpers.ok_fs (Vfs.write_file ~mkparents:true ops "/data/x" "payload") in
  check tstr "stacked read" "payload" (Helpers.ok_fs (Vfs.read_file ops "/data/x"));
  check tbool ".pass hidden from readdir" true
    (not (List.mem ".pass" (Helpers.ok_fs (ops.readdir (ops.root ())))))

let test_lasagna_dpapi_write_read () =
  let _clock, _disk, _ext3, ctx, lasagna = fresh_lasagna () in
  let ops = Lasagna.ops lasagna in
  let ino = Helpers.ok_fs (Vfs.create_path ops "/f" Vfs.Regular) in
  let h = Helpers.ok_fs (Lasagna.file_handle lasagna ino) in
  let ep = Lasagna.endpoint lasagna in
  let v = Helpers.ok (ep.pass_write h ~off:0 ~data:(Some "abc") [ Dpapi.entry h [ Record.name "f" ] ]) in
  check tint "write version" (Ctx.current_version ctx h.pnode) v;
  let r = Helpers.ok (ep.pass_read h ~off:0 ~len:3) in
  check tstr "pass_read data" "abc" r.Dpapi.data;
  check tbool "pass_read identity" true (Pnode.equal r.r_pnode h.pnode)

let test_lasagna_wap_ordering () =
  (* The provenance frame must hit the log before the data hits the file:
     crash the disk right after the log append and verify recovery flags
     the data as inconsistent (provenance present, data missing). *)
  let _clock, disk, ext3, _ctx, lasagna = fresh_lasagna () in
  let ops = Lasagna.ops lasagna in
  let ino = Helpers.ok_fs (Vfs.create_path ops "/victim" Vfs.Regular) in
  let h = Helpers.ok_fs (Lasagna.file_handle lasagna ino) in
  let ep = Lasagna.endpoint lasagna in
  (* Writing 8 KB of data: the log frame needs 1-2 block writes (incl. the
     journal frames); let the frame land and kill the device before the
     data write completes. *)
  Disk.schedule_crash disk ~after_writes:3;
  (match ep.pass_write h ~off:0 ~data:(Some (Helpers.payload ~seed:5 ~len:8192))
           [ Dpapi.entry h [ Record.name "victim" ] ]
   with
  | Ok _ -> Alcotest.fail "write should have crashed"
  | Error Dpapi.Ecrashed -> ()
  | Error e -> Alcotest.failf "unexpected error %s" (Dpapi.error_to_string e));
  Disk.revive disk;
  ignore (ext3 : Ext3.t);
  let remounted = Ext3.mount disk in
  let report = Helpers.ok_fs (Recovery.scan (Ext3.ops remounted)) in
  check tbool "recovery found the in-flight write" true (List.length report.inconsistent >= 1);
  let inc = List.hd report.inconsistent in
  check tbool "right object flagged" true (Pnode.equal inc.Recovery.i_pnode h.pnode)

let test_lasagna_recovery_clean () =
  (* With no crash, recovery over the same logs reports nothing. *)
  let _clock, disk, _ext3, _ctx, lasagna = fresh_lasagna () in
  let ops = Lasagna.ops lasagna in
  let ino = Helpers.ok_fs (Vfs.create_path ops "/ok" Vfs.Regular) in
  let h = Helpers.ok_fs (Lasagna.file_handle lasagna ino) in
  let ep = Lasagna.endpoint lasagna in
  let _ =
    Helpers.ok (ep.pass_write h ~off:0 ~data:(Some "consistent") [ Dpapi.entry h [] ])
  in
  let remounted = Ext3.mount disk in
  let report = Helpers.ok_fs (Recovery.scan (Ext3.ops remounted)) in
  check tint "nothing inconsistent" 0 (List.length report.inconsistent);
  check tbool "frames were scanned" true (report.frames_ok > 0);
  (* the same volume passes the offline graph verifier, replaying the
     still-unconsumed WAP log through the production ingest path *)
  let vreport = Helpers.ok_fs (Pvcheck.fsck ~lower:(Ext3.ops remounted) ~volume:"vol0" ()) in
  check tbool "orphan-agreement ran" true (List.mem "orphan-agreement" vreport.Pvcheck.r_passes);
  if not (Pvcheck.clean vreport) then
    Alcotest.failf "pvcheck after clean recovery:@ %a" Pvcheck.pp_report vreport

let test_lasagna_overwrite_recovery_clean () =
  (* regression: overwriting already-digested data in the same version
     must re-digest, or clean recovery would report a false mismatch *)
  let _clock, disk, _ext3, _ctx, lasagna = fresh_lasagna () in
  let ops = Lasagna.ops lasagna in
  let ino = Helpers.ok_fs (Vfs.create_path ops "/rewritten" Vfs.Regular) in
  let h = Helpers.ok_fs (Lasagna.file_handle lasagna ino) in
  let ep = Lasagna.endpoint lasagna in
  let _ = Helpers.ok (ep.pass_write h ~off:0 ~data:(Some "first contents") [ Dpapi.entry h [] ]) in
  (* same version, overlapping range, empty bundle *)
  let _ = Helpers.ok (ep.pass_write h ~off:0 ~data:(Some "second!") []) in
  let remounted = Ext3.mount disk in
  let report = Helpers.ok_fs (Recovery.scan (Ext3.ops remounted)) in
  check tint "no false inconsistency after overwrite" 0 (List.length report.inconsistent)

let test_lasagna_dormancy_rotation () =
  (* the paper's second rotation trigger: a dormant log closes on the
     next append *)
  let clock = Clock.create () in
  let disk = Simdisk.Disk.create ~clock () in
  let ext3 = Ext3.format disk in
  let ctx = Ctx.create ~machine:1 in
  let lasagna =
    Lasagna.create ~idle_ns:1_000_000 ~now:(fun () -> Clock.now clock)
      ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0" ~charge:(Clock.advance clock) ()
  in
  let closed = ref 0 in
  Lasagna.on_log_closed lasagna (fun _ _ -> incr closed);
  let ops = Lasagna.ops lasagna in
  let _ = Helpers.ok_fs (Vfs.write_file ops "/one" "x") in
  check tint "no rotation while active" 0 !closed;
  Clock.advance clock 5_000_000 (* the log goes dormant *);
  let _ = Helpers.ok_fs (Vfs.write_file ops "/two" "y") in
  check tbool "dormant log was closed" true (!closed >= 1)

let test_lasagna_provenance_survives_rename () =
  let _clock, _disk, _ext3, _ctx, lasagna = fresh_lasagna () in
  let ops = Lasagna.ops lasagna in
  let ino = Helpers.ok_fs (Vfs.write_file ops "/before" "data") in
  let h1 = Helpers.ok_fs (Lasagna.file_handle lasagna ino) in
  Helpers.ok_fs (Vfs.rename_path ops "/before" "/after");
  let ino2 = Helpers.ok_fs (Vfs.lookup_path ops "/after") in
  let h2 = Helpers.ok_fs (Lasagna.file_handle lasagna ino2) in
  check tbool "pnode survives rename" true (Pnode.equal h1.pnode h2.pnode)

let test_lasagna_log_rotation () =
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let ext3 = Ext3.format disk in
  let ctx = Ctx.create ~machine:1 in
  let registry = Telemetry.create () in
  let lasagna =
    Lasagna.create ~registry ~log_max:512 ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0"
      ~charge:(Clock.advance clock) ()
  in
  let closed = ref [] in
  Lasagna.on_log_closed lasagna (fun name _ino -> closed := name :: !closed);
  let ops = Lasagna.ops lasagna in
  for i = 0 to 20 do
    let _ = Helpers.ok_fs (Vfs.write_file ops (Printf.sprintf "/f%d" i) "x") in
    ()
  done;
  check tbool "logs rotated" true (List.length !closed > 0);
  check tbool "rotation count matches" true (Helpers.counter registry "wap.rotations" = List.length !closed)

let test_lasagna_mkobj_revive () =
  let _clock, _disk, _ext3, ctx, lasagna = fresh_lasagna () in
  let ep = Lasagna.endpoint lasagna in
  let h = Helpers.ok (ep.pass_mkobj ~volume:(Some "vol0")) in
  let h' = Helpers.ok (ep.pass_reviveobj h.pnode 0) in
  check tbool "revive finds object" true (Pnode.equal h.pnode h'.pnode);
  (match ep.pass_reviveobj h.pnode 99 with
  | Error Dpapi.Estale -> ()
  | _ -> Alcotest.fail "future version must be stale");
  (match ep.pass_reviveobj (Ctx.fresh ctx) 0 with
  | Error Dpapi.Enoent -> ()
  | _ -> Alcotest.fail "unknown object must be ENOENT")

(* WAP property: crash at a random point during a stream of provenance-
   carrying writes; recovery must never report an inconsistency for data
   whose write completed, and the flagged set only contains the in-flight
   object. *)
let prop_wap_crash_safety =
  QCheck2.Test.make ~name:"WAP: crash anywhere, recovery exact" ~count:40
    QCheck2.Gen.(pair (int_range 1 60) (int_bound 10_000))
    (fun (crash_after, seed) ->
      let clock = Clock.create () in
      let disk = Disk.create ~clock () in
      let ext3 = Ext3.format disk in
      let ctx = Ctx.create ~machine:1 in
      let lasagna =
        Lasagna.create ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0"
          ~charge:(Clock.advance clock) ()
      in
      let ops = Lasagna.ops lasagna in
      let ep = Lasagna.endpoint lasagna in
      let completed = Hashtbl.create 16 in
      Simdisk.Disk.schedule_crash disk ~after_writes:crash_after;
      (try
         for i = 0 to 19 do
           let path = Printf.sprintf "/f%d" i in
           let ino =
             match Vfs.create_path ops path Vfs.Regular with
             | Ok ino -> ino
             | Error _ -> raise Stdlib.Exit
           in
           let h =
             match Lasagna.file_handle lasagna ino with
             | Ok h -> h
             | Error _ -> raise Stdlib.Exit
           in
           let data = Helpers.payload ~seed:(seed + i) ~len:(512 + (i * 97)) in
           match ep.pass_write h ~off:0 ~data:(Some data) [ Dpapi.entry h [] ] with
           | Ok _ -> Hashtbl.replace completed (Pnode.to_int h.pnode) ()
           | Error _ -> raise Stdlib.Exit
         done
       with Stdlib.Exit -> ());
      Simdisk.Disk.revive disk;
      let remounted = Ext3.mount disk in
      match Recovery.scan (Ext3.ops remounted) with
      | Error _ -> false
      | Ok report ->
          List.for_all
            (fun (inc : Recovery.inconsistency) ->
              (* completed writes are never flagged *)
              not (Hashtbl.mem completed (Pnode.to_int inc.i_pnode)))
            report.inconsistent)

(* In-place patching is invisible: random block and byte I/O under the
   same fault schedule and crash countdown ends in the same media, clock,
   counters and fault digest whether partial writes go through
   [write_bytes] or through a hand-made read-modify-write ([stored_block]
   + [Disk.patch] + [write_block]), and no string either side handed out
   or took in changes afterwards. *)
type disk_op =
  | Op_write_block of int * int  (** block, payload seed *)
  | Op_write_bytes of int * int * int  (** byte offset, length, seed *)
  | Op_read_block of int
  | Op_stored_block of int
  | Op_read_bytes of int * int

let prop_partial_writes_match_copying_model =
  let bs = Disk.block_size and nblocks = 4 in
  let gen_op =
    let open QCheck2.Gen in
    let blk = int_bound (nblocks - 1) and off = int_bound ((nblocks * bs) - 1) in
    frequency
      [
        (2, map2 (fun b seed -> Op_write_block (b, seed)) blk nat);
        (* mostly sub-block appends, some spanning several blocks *)
        (4, map3 (fun o l seed -> Op_write_bytes (o, l, seed)) off (int_range 1 64) nat);
        (2, map3 (fun o l seed -> Op_write_bytes (o, l, seed)) off (int_range 1 (3 * bs)) nat);
        (1, map (fun b -> Op_read_block b) blk);
        (1, map (fun b -> Op_stored_block b) blk);
        (1, map2 (fun o l -> Op_read_bytes (o, l)) off (int_range 1 (2 * bs)));
      ]
  in
  QCheck2.Test.make ~name:"disk: in-place partial writes match the copying model" ~count:200
    QCheck2.Gen.(triple (int_bound 10_000) (int_range 1 40) (list_size (int_range 1 60) gen_op))
    (fun (fault_seed, crash_after, ops) ->
      let run ~by_hand =
        let clock = Clock.create () and registry = Telemetry.create () in
        let spec =
          { Fault.quiet with disk_read_error = 60; disk_write_error = 60; torn_write = 60;
            corrupt_sector = 60 }
        in
        let fault = Fault.plan ~spec ~seed:fault_seed () in
        let disk = Disk.create ~registry ~fault ~clock () in
        Disk.schedule_crash disk ~after_writes:crash_after;
        let seen = ref [] in
        let keep s = seen := (s, String.sub s 0 (String.length s)) :: !seen in
        let write_bytes ~off data =
          if not by_hand then Disk.write_bytes disk ~off data
          else begin
            let pos = ref 0 and len = String.length data in
            while !pos < len do
              let blk = (off + !pos) / bs and at = (off + !pos) mod bs in
              let n = min (bs - at) (len - !pos) in
              (if n = bs then Disk.write_block disk blk (String.sub data !pos bs)
               else
                 let medium = Disk.stored_block disk blk in
                 Disk.write_block disk blk (Disk.patch medium ~at data ~pos:!pos ~len:n));
              pos := !pos + n
            done
          end
        in
        let outcome op =
          match
            match op with
            | Op_write_block (b, seed) ->
                let data = Helpers.payload ~seed ~len:bs in
                keep data;
                Disk.write_block disk b data
            | Op_write_bytes (off, len, seed) ->
                let data = Helpers.payload ~seed ~len in
                keep data;
                write_bytes ~off data
            | Op_read_block b -> keep (Disk.read_block disk b)
            | Op_stored_block b -> keep (Disk.stored_block disk b)
            | Op_read_bytes (off, len) -> keep (Disk.read_bytes disk ~off ~len)
          with
          | () -> "ok"
          | exception Disk.Io_error -> "eio"
          | exception Disk.Crashed ->
              Disk.revive disk;
              "crash"
        in
        let outcomes = List.map outcome ops in
        let media =
          List.init (nblocks + 3) (fun b -> Disk.stored_block disk b) |> String.concat ""
        in
        let counters =
          List.map (fun name -> Helpers.counter registry ("disk." ^ name))
            [ "reads"; "writes"; "bytes_read"; "bytes_written"; "seeks"; "seek_ns"; "transfer_ns" ]
        in
        let intact = List.for_all (fun (s, copy) -> String.equal s copy) !seen in
        (outcomes, media, Clock.now clock, counters, Fault.digest fault, intact)
      in
      let outcomes, media, now, counters, digest, intact = run ~by_hand:false in
      let outcomes', media', now', counters', digest', intact' = run ~by_hand:true in
      List.equal String.equal outcomes outcomes'
      && String.equal media media' && Int.equal now now'
      && List.equal Int.equal counters counters'
      && String.equal digest digest' && intact && intact')

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_wap_crash_safety; prop_partial_writes_match_copying_model ]

let suite =
  [
    Alcotest.test_case "disk: block roundtrip" `Quick test_disk_rw;
    Alcotest.test_case "disk: byte API spans blocks" `Quick test_disk_bytes_api;
    Alcotest.test_case "disk: charges simulated time" `Quick test_disk_charges_time;
    Alcotest.test_case "disk: seek cost grows with distance" `Quick test_disk_seek_cost_monotone;
    Alcotest.test_case "disk: crash injection" `Quick test_disk_crash;
    Alcotest.test_case "ext3: create/read/write/readdir" `Quick test_ext3_basics;
    Alcotest.test_case "ext3: error paths" `Quick test_ext3_errors;
    Alcotest.test_case "ext3: rename overwrites target" `Quick test_ext3_rename_overwrites;
    Alcotest.test_case "ext3: sparse files and offsets" `Quick test_ext3_sparse_and_offsets;
    Alcotest.test_case "ext3: 1MB file roundtrip" `Quick test_ext3_large_file;
    Alcotest.test_case "ext3: journal replay after crash" `Quick test_ext3_journal_replay;
    Alcotest.test_case "ext3: replay 100 files" `Slow test_ext3_replay_after_many_ops;
    Alcotest.test_case "ext3: journal compaction + replay" `Quick test_ext3_journal_compaction;
    Alcotest.test_case "disk: blocks are shared, never mutated" `Quick test_disk_block_contract;
    Alcotest.test_case "disk: read_into equals read_bytes" `Quick test_disk_read_into;
    Alcotest.test_case "ext3: journal past the default data start" `Slow
      test_ext3_large_journal_layout;
    Alcotest.test_case "ext3: fault damage reaches the medium only" `Quick test_ext3_fault_damage;
    Alcotest.test_case "ext3+lasagna: simulated cost golden" `Quick test_sim_cost_golden;
    Alcotest.test_case "lasagna: VFS passthrough + .pass hidden" `Quick test_lasagna_passthrough;
    Alcotest.test_case "lasagna: DPAPI write/read" `Quick test_lasagna_dpapi_write_read;
    Alcotest.test_case "lasagna: WAP ordering under crash" `Quick test_lasagna_wap_ordering;
    Alcotest.test_case "lasagna: clean recovery is empty" `Quick test_lasagna_recovery_clean;
    Alcotest.test_case "lasagna: overwrite keeps recovery clean" `Quick
      test_lasagna_overwrite_recovery_clean;
    Alcotest.test_case "lasagna: dormancy rotation" `Quick test_lasagna_dormancy_rotation;
    Alcotest.test_case "lasagna: provenance survives rename" `Quick
      test_lasagna_provenance_survives_rename;
    Alcotest.test_case "lasagna: log rotation notifies" `Quick test_lasagna_log_rotation;
    Alcotest.test_case "lasagna: mkobj/revive" `Quick test_lasagna_mkobj_revive;
  ]
  @ qcheck_cases
