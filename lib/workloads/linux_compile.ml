(* The Linux-compile workload (Table 2, row 1): unpack a source tree, then
   build it — a CPU-intensive workload with a long tail of small writes.

   Structure mirrors a kernel build: tar unpacks sources and headers; one
   cc process per translation unit reads its source plus shared headers,
   burns CPU, and writes an object file; one ld per directory links the
   objects into a built-in.o; a final ld produces vmlinux.  Every compile
   is a separate execve'd process, which is what makes this workload
   provenance-heavy (argv, env and binary records per process). *)

type params = { dirs : int; files_per_dir : int; headers : int; cc_cpu_ms : int }

let default = { dirs = 8; files_per_dir = 12; headers = 6; cc_cpu_ms = 14 }

let src_dir d = Printf.sprintf "/vol0/src/d%d" d
let src_file d f = Printf.sprintf "%s/f%d.c" (src_dir d) f
let obj_file d f = Printf.sprintf "/vol0/obj/d%d/f%d.o" d f
let header_file h = Printf.sprintf "/vol0/src/include/h%d.h" h

let setup sys ~parent =
  (* install the toolchain binaries *)
  let installer = Process.spawn sys ~parent () in
  Process.write_file installer "/vol0/bin/tar" (Wk.payload ~seed:101 ~len:9000);
  Process.write_file installer "/vol0/bin/cc" (Wk.payload ~seed:102 ~len:30000);
  Process.write_file installer "/vol0/bin/ld" (Wk.payload ~seed:103 ~len:20000);
  Process.exit installer

let run ?(params = default) sys ~parent =
  setup sys ~parent;
  (* phase 1: unpack *)
  let tar =
    Process.spawn sys ~binary:"/vol0/bin/tar" ~argv:[ "tar"; "xf"; "linux.tar" ] ~parent ()
  in
  for h = 0 to params.headers - 1 do
    Process.write_file tar (header_file h) (Wk.payload ~seed:(500 + h) ~len:3000)
  done;
  for d = 0 to params.dirs - 1 do
    for f = 0 to params.files_per_dir - 1 do
      Process.write_file tar (src_file d f)
        (Wk.payload ~seed:((d * 100) + f) ~len:(1500 + (((d * 7) + f) mod 5 * 1200)))
    done
  done;
  Process.exit tar;
  (* phase 2: compile, one process per translation unit *)
  for d = 0 to params.dirs - 1 do
    for f = 0 to params.files_per_dir - 1 do
      let cc =
        Process.spawn sys ~binary:"/vol0/bin/cc"
          ~argv:[ "cc"; "-O2"; "-c"; src_file d f; "-o"; obj_file d f ]
          ~parent ()
      in
      let source = Process.read_file cc (src_file d f) in
      (* every unit includes two headers *)
      let _h1 = Process.read_file cc (header_file (d mod params.headers)) in
      let _h2 = Process.read_file cc (header_file (f mod params.headers)) in
      Process.cpu cc (params.cc_cpu_ms * 1_000_000);
      Process.write_file cc (obj_file d f)
        (Wk.payload ~seed:(String.length source) ~len:(String.length source * 2));
      Process.exit cc
    done;
    (* phase 3a: per-directory link *)
    let ld =
      Process.spawn sys ~binary:"/vol0/bin/ld" ~argv:[ "ld"; "-r"; "-o"; "built-in.o" ] ~parent ()
    in
    let total = ref 0 in
    for f = 0 to params.files_per_dir - 1 do
      total := !total + String.length (Process.read_file ld (obj_file d f))
    done;
    Process.cpu ld 6_000_000;
    Process.write_file ld (Printf.sprintf "/vol0/obj/d%d/built-in.o" d)
      (Wk.payload ~seed:!total ~len:!total);
    Process.exit ld
  done;
  (* phase 3b: final link *)
  let ld = Process.spawn sys ~binary:"/vol0/bin/ld" ~argv:[ "ld"; "-o"; "vmlinux" ] ~parent () in
  let total = ref 0 in
  for d = 0 to params.dirs - 1 do
    total :=
      !total + String.length (Process.read_file ld (Printf.sprintf "/vol0/obj/d%d/built-in.o" d))
  done;
  Process.cpu ld 25_000_000;
  Process.write_file ld "/vol0/vmlinux" (Wk.payload ~seed:!total ~len:!total);
  Process.exit ld
