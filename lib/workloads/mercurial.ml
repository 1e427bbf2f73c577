(* The Mercurial-activity workload (Table 2, row 3): the overhead a user
   experiences in a normal development scenario — start from a source
   tree and apply a series of patches.

   Each patch application is what the paper blames for the highest
   elapsed-time overhead: patch creates a temporary file, merges data
   from the patch file and the original into it, and finally renames the
   temporary over the original — many metadata operations whose I/O the
   provenance-log writes interfere with. *)

type params = { tree_files : int; patches : int; files_per_patch : int }

let default = { tree_files = 60; patches = 40; files_per_patch = 4 }

let tree_file i = Printf.sprintf "/vol0/repo/dir%d/src%d.c" (i mod 6) i
let patch_file p = Printf.sprintf "/vol0/patches/%04d.diff" p

let run ?(params = default) sys ~parent =
  (* unpack the vanilla tree and the patch queue *)
  let setup = Process.spawn sys ~parent () in
  for i = 0 to params.tree_files - 1 do
    Process.write_file setup (tree_file i) (Wk.payload ~seed:i ~len:(2000 + (i mod 9 * 700)))
  done;
  for p = 0 to params.patches - 1 do
    Process.write_file setup (patch_file p) (Wk.payload ~seed:(9000 + p) ~len:1800)
  done;
  Process.write_file setup "/vol0/bin/patch" (Wk.payload ~seed:77 ~len:15000);
  Process.exit setup;
  (* apply each patch with its own process *)
  let r = Wk.rng 7 in
  for p = 0 to params.patches - 1 do
    let patch =
      Process.spawn sys ~binary:"/vol0/bin/patch" ~argv:[ "patch"; "-p1" ] ~parent ()
    in
    let diff = Process.read_file patch (patch_file p) in
    for _ = 1 to params.files_per_patch do
      let i = Wk.rand r params.tree_files in
      let original = Process.read_file patch (tree_file i) in
      let tmp = tree_file i ^ ".orig" in
      (* merge the original and the hunk into the temporary *)
      Process.cpu patch 400_000;
      Process.write_file patch tmp
        (original ^ String.sub diff 0 (min 256 (String.length diff)));
      (* rename the temporary over the original *)
      Process.ok
        (Kernel.rename (Process.kernel patch) ~pid:(Process.pid patch) ~src:tmp
           ~dst:(tree_file i))
    done;
    Process.exit patch
  done
