(* The PASSv1 cycle handling baseline (paper §5.4): maintain a global graph
   of object dependencies, explicitly check for cycles on every insertion,
   and on detecting one merge all the nodes of the cycle into a single
   entity.  The paper reports this proved challenging and was replaced by
   cycle avoidance in PASSv2; we keep it as the ablation baseline so the
   bench can compare the two (cost per edge, entities merged vs versions
   created). *)

type node = Pnode.t * int (* object, version *)

type t = {
  parent : (node, node) Hashtbl.t; (* union-find over merged entities *)
  edges : (node, node list ref) Hashtbl.t; (* representative -> successors *)
  mutable merges : int;
  mutable edge_count : int;
  mutable probe_steps : int; (* DFS work performed, for the bench *)
}

let create () =
  { parent = Hashtbl.create 1024; edges = Hashtbl.create 1024; merges = 0;
    edge_count = 0; probe_steps = 0 }

let rec find t n =
  match Hashtbl.find_opt t.parent n with
  | None -> n
  | Some p ->
      let root = find t p in
      if root <> p then Hashtbl.replace t.parent n root;
      root

let successors t n =
  match Hashtbl.find_opt t.edges n with Some l -> !l | None -> []

(* Depth-first search from [src] looking for [dst]; returns the path if
   found.  This is the global information the PASSv1 algorithm needs and
   PASSv2 avoids needing. *)
let path_to t ~src ~dst =
  let visited = Hashtbl.create 64 in
  let rec dfs n path =
    t.probe_steps <- t.probe_steps + 1;
    if n = dst then Some (List.rev (n :: path))
    else if Hashtbl.mem visited n then None
    else begin
      Hashtbl.replace visited n ();
      let rec try_succ = function
        | [] -> None
        | s :: rest -> (
            match dfs (find t s) (n :: path) with
            | Some _ as found -> found
            | None -> try_succ rest)
      in
      try_succ (successors t n)
    end
  in
  dfs (find t src) []

let merge t nodes =
  match nodes with
  | [] | [ _ ] -> ()
  | root :: rest ->
      t.merges <- t.merges + 1;
      let root = find t root in
      let merged_succ = ref (successors t root) in
      List.iter
        (fun n ->
          let n = find t n in
          if n <> root then begin
            merged_succ := successors t n @ !merged_succ;
            Hashtbl.remove t.edges n;
            Hashtbl.replace t.parent n root
          end)
        rest;
      (* drop successors that now point inside the merged entity *)
      let kept = List.filter (fun s -> find t s <> root) !merged_succ in
      Hashtbl.replace t.edges root (ref kept)

(* After a merge, a *parallel* path between two merged nodes becomes a
   cycle through the merged entity; keep merging until none remains. *)
let rec absorb_cycles t root =
  let root = find t root in
  let through =
    List.find_map
      (fun s ->
        let s = find t s in
        if s = root then None
        else
          match path_to t ~src:s ~dst:root with
          | Some path -> Some path
          | None -> None)
      (successors t root)
  in
  match through with
  | None -> ()
  | Some path ->
      merge t (root :: path);
      absorb_cycles t root

(* Add dependency edge [src -> dst].  If this would close a cycle, merge
   every node on the cycle into one entity, PASSv1-style. *)
let add_edge t src dst =
  t.edge_count <- t.edge_count + 1;
  let src = find t src and dst = find t dst in
  if src = dst then ()
  else
    match path_to t ~src:dst ~dst:src with
    | Some path ->
        merge t path;
        absorb_cycles t (find t src)
    | None ->
        let l =
          match Hashtbl.find_opt t.edges src with
          | Some l -> l
          | None ->
              let l = ref [] in
              Hashtbl.add t.edges src l;
              l
        in
        l := dst :: !l

let is_acyclic t =
  let color = Hashtbl.create 256 in
  (* 1 = in progress, 2 = done *)
  let rec dfs n =
    match Hashtbl.find_opt color n with
    | Some 1 -> false
    | Some _ -> true
    | None ->
        Hashtbl.replace color n 1;
        let ok = List.for_all (fun s -> dfs (find t s)) (successors t n) in
        Hashtbl.replace color n 2;
        ok
  in
  Hashtbl.fold (fun n _ acc -> acc && dfs n) t.edges true

let merges t = t.merges
let probe_steps t = t.probe_steps
