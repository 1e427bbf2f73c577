(* The Postmark workload (Table 2, row 2): simulates an email server — the
   I/O-intensive row.  Per the paper's configuration: a pool of files
   spread over 10 subdirectories, then a transaction mix of create/delete
   and read/append, with file sizes drawn between a lower and upper bound.
   (The simulation scales the counts down; the *mix* is Postmark's.) *)

type params = {
  files : int;
  transactions : int;
  subdirs : int;
  min_size : int;
  max_size : int;
}

(* the paper ran 1500/1500/10 with 4 KB..1 MB; the default keeps the
   paper's file-size distribution and scales the counts to ~1/12 *)
let default = { files = 120; transactions = 120; subdirs = 10; min_size = 4096; max_size = 1_048_576 }

let file_path params i = Printf.sprintf "/vol0/pm/s%d/file%d" (i mod params.subdirs) i

let run ?(params = default) sys ~parent =
  let p = Process.spawn sys ~parent () in
  let r = Wk.rng 42 in
  let size () = params.min_size + Wk.rand r (params.max_size - params.min_size) in
  let live = Hashtbl.create params.files in
  let next_file = ref 0 in
  let create () =
    let i = !next_file in
    incr next_file;
    Process.write_file p (file_path params i) (Wk.payload ~seed:i ~len:(size ()));
    Hashtbl.replace live i ()
  in
  (* initial pool *)
  for _ = 1 to params.files do
    create ()
  done;
  let pick_live () =
    let n = Hashtbl.length live in
    if n = 0 then None
    else begin
      let target = Wk.rand r n in
      let k = ref None in
      let i = ref 0 in
      (try
         Hashtbl.iter
           (fun key () ->
             if !i = target then begin
               k := Some key;
               raise Stdlib.Exit
             end;
             incr i)
           live
       with Stdlib.Exit -> ());
      !k
    end
  in
  (* transaction mix: half create/delete, half read/append, like postmark *)
  for _ = 1 to params.transactions do
    match Wk.rand r 4 with
    | 0 -> create ()
    | 1 -> (
        match pick_live () with
        | Some i ->
            Hashtbl.remove live i;
            Process.ok
              (Kernel.unlink (Process.kernel p) ~pid:(Process.pid p) ~path:(file_path params i))
        | None -> create ())
    | 2 -> (
        match pick_live () with
        | Some i -> ignore (Process.read_file p (file_path params i) : string)
        | None -> create ())
    | _ -> (
        match pick_live () with
        | Some i ->
            Process.append_file p (file_path params i)
              (Wk.payload ~seed:i ~len:(min 8192 (size ())))
        | None -> create ())
  done;
  Process.exit p
