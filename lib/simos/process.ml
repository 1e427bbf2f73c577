(* A program running as a process of the simulated kernel: the host glue
   every workload and provenance-aware application shares. *)

module Dpapi = Pass_core.Dpapi
module Libpass = Pass_core.Libpass
module Ctx = Pass_core.Ctx
module Pvalue = Pass_core.Pvalue

type t = { k : Kernel.t; pid : int }

exception Error of Vfs.errno

let ok = function Ok v -> v | Error e -> raise (Error e)

let v sys ~pid = { k = System.kernel sys; pid }

let spawn sys ?binary ?(argv = []) ~parent () =
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent in
  Option.iter (fun path -> ok (Kernel.execve k ~pid ~path ~argv ~env:[ "PATH=/vol0/bin" ])) binary;
  { k; pid }

let pid t = t.pid
let kernel t = t.k
let exit t = ok (Kernel.exit t.k ~pid:t.pid)
let cpu t ns = Kernel.cpu t.k ns

(* 4 KB, like the real programs whose duplicate records the analyzer
   exists to eliminate. *)
let chunk = 4096

let write_chunks t ~fd data =
  let len = String.length data in
  let pos = ref 0 in
  while !pos < len do
    let n = min chunk (len - !pos) in
    ok (Kernel.write t.k ~pid:t.pid ~fd ~data:(String.sub data !pos n));
    pos := !pos + n
  done

let write_file t path data =
  let fd = ok (Kernel.open_file t.k ~pid:t.pid ~path ~create:true) in
  if data = "" then ok (Kernel.write t.k ~pid:t.pid ~fd ~data:"");
  write_chunks t ~fd data;
  ok (Kernel.close t.k ~pid:t.pid ~fd)

let append_file t path data =
  let size = match Kernel.stat t.k ~path with Ok st -> st.Vfs.st_size | Error _ -> 0 in
  let fd = ok (Kernel.open_file t.k ~pid:t.pid ~path ~create:true) in
  ok (Kernel.seek t.k ~pid:t.pid ~fd ~off:size);
  write_chunks t ~fd data;
  ok (Kernel.close t.k ~pid:t.pid ~fd)

let read_file t path =
  let fd = ok (Kernel.open_file t.k ~pid:t.pid ~path ~create:false) in
  let buf = Buffer.create chunk in
  let rec loop () =
    let s = ok (Kernel.read t.k ~pid:t.pid ~fd ~len:chunk) in
    if s <> "" then begin
      Buffer.add_string buf s;
      loop ()
    end
  in
  loop ();
  ok (Kernel.close t.k ~pid:t.pid ~fd);
  Buffer.contents buf

let libpass t =
  Option.map
    (fun s ->
      let endpoint = Pass_core.Observer.endpoint_for s.Kernel.observer ~pid:t.pid in
      Libpass.connect ~endpoint ~pid:t.pid)
    (Kernel.pass_stack t.k)

let handle_of_path t path = Result.to_option (Kernel.handle_of_path t.k path)

let xref t (h : Dpapi.handle) = Pvalue.xref h.pnode (Ctx.current_version (Kernel.ctx t.k) h.pnode)
