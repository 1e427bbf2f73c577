(* build_nfs: a compile-shaped build on a PA-NFS mount.  Set-up unpacks a
   toolchain binary, 64 shared headers and the sources; each op is one
   translation unit: fork and execve cc, read the source and four seeded
   headers, write an object twice the source's size, exit.  Many
   processes, records and RPCs per byte moved; the headers stay hot.

   The same generator, run locally, builds restart_query's graph. *)

module G = Pb_gen
module M = Pb_machine

let headers = 64
let dirs = 16
let cc_path = "/vol0/bin/cc"
let cc_cpu_ns = 14_000_000
let header_path h = Printf.sprintf "/vol0/include/h%02d.h" h
let src_path u = Printf.sprintf "/vol0/src/d%d/u%d.c" (u mod dirs) u
let obj_path u = Printf.sprintf "/vol0/obj/d%d/u%d.o" (u mod dirs) u

type unit_spec = { src_seed : int; src_len : int; incs : int array; obj_seed : int }

type t = {
  m : M.t;
  make : int;  (* the pid every cc is forked from *)
  units : unit_spec array;
}

(* Four distinct headers. *)
let pick_headers r =
  let chosen = Array.make 4 (-1) in
  let k = ref 0 in
  while !k < 4 do
    let h = G.int r headers in
    if not (Array.exists (Int.equal h) chosen) then begin
      chosen.(!k) <- h;
      incr k
    end
  done;
  chosen

let setup m ~seed ~units =
  let r = G.rng ~seed ~stream:2 in
  let installer = M.fork m ~parent:Kernel.init_pid in
  M.write_file m ~pid:installer ~path:cc_path (G.payload ~seed:(G.next r) ~len:30000);
  for h = 0 to headers - 1 do
    M.write_file m ~pid:installer ~path:(header_path h)
      (G.payload ~seed:(G.next r) ~len:(G.range r 2048 4096))
  done;
  let units =
    Array.init units (fun _ ->
        let src_seed = G.next r in
        let src_len = G.range r 1536 6400 in
        let incs = pick_headers r in
        { src_seed; src_len; incs; obj_seed = G.next r })
  in
  Array.iteri
    (fun u s ->
      M.write_file m ~pid:installer ~path:(src_path u) (G.payload ~seed:s.src_seed ~len:s.src_len))
    units;
  M.exit m ~pid:installer;
  let make = M.fork m ~parent:Kernel.init_pid in
  { m; make; units }

(* One translation unit.  [source] receives what cc read. *)
let compile b u ~obj ~source =
  let m = b.m in
  let s = b.units.(u) in
  let pid = M.fork m ~parent:b.make in
  M.execve m ~pid ~path:cc_path ~argv:[ "cc"; "-c"; src_path u; "-o"; obj_path u ];
  source := M.read_file m ~pid ~path:(src_path u);
  Array.iter (fun h -> ignore (M.read_file m ~pid ~path:(header_path h) : string)) s.incs;
  Kernel.cpu m.kernel cc_cpu_ns;
  M.write_file m ~pid ~path:(obj_path u) obj;
  M.exit m ~pid

let op b u : Pb_round.op =
  let s = b.units.(u) in
  let obj = G.payload ~seed:s.obj_seed ~len:(2 * s.src_len) in
  let want = G.payload ~seed:s.src_seed ~len:s.src_len in
  let source = ref "" in
  { run = (fun () -> compile b u ~obj ~source); check = (fun () -> String.equal !source want) }

(* User data a finished build leaves behind: toolchain, sources, objects
   (headers are not counted). *)
let user_bytes b = Array.fold_left (fun acc s -> acc + (3 * s.src_len)) 30000 b.units

(* The file a path names in the provenance database: files carry their
   leaf name, an executed binary its full path.  Leaf names here are
   unique. *)
let node db path =
  match Provdb.find_by_name db (Filename.basename path) @ Provdb.find_by_name db path with
  | p :: _ -> Some p
  | [] -> None

(* Every object's ancestry holds its source and cc. *)
let ancestry_ok db ~units =
  let cc = node db cc_path in
  let ok = ref (Option.is_some cc) in
  for u = 0 to units - 1 do
    if !ok then
      match (node db (obj_path u), node db (src_path u), cc) with
      | Some o, Some src, Some cc ->
          let version = Option.fold ~none:0 ~some:(fun (n : Provdb.node) -> n.max_version)
              (Provdb.find_node db o) in
          let anc = Provdb.ancestors db o ~version in
          let has p = List.exists (fun (q, _) -> Pass_core.Pnode.equal q p) anc in
          ok := has src && has cc
      | _ -> ok := false
  done;
  !ok

let pvcheck_clean db = Pvcheck.clean (Pvcheck.check_db ~registry:(Telemetry.create ()) db)

let setup_nfs ~traced ~seed ~units : Pb_round.t =
  let m = M.create ~traced ~remote:true in
  let b = setup m ~seed ~units in
  {
    m; n_ops = units; gen = op b; restart_first = false; adopt = (fun _ -> ());
    user_bytes = (fun () -> user_bytes b);
    verify =
      (fun () ->
        let db = M.data_db m in
        [ ("objects descend from source and cc", ancestry_ok db ~units);
          ("pvcheck clean on the server db", pvcheck_clean db) ]);
    extra = Pb_round.no_extra;
  }
