(* Quickstart: boot a provenance-aware system, do some work, ask questions.

     dune exec examples/quickstart.exe

   Walks through the basic PASSv2 loop: mount a PASS volume, run processes
   that read and write files, disclose some application-level provenance
   through libpass, drain the WAP logs into Waldo, and query with PQL. *)

module Record = Pass_core.Record
module Pvalue = Pass_core.Pvalue
module Dpapi = Pass_core.Dpapi
module Libpass = Pass_core.Libpass

let pql_names db q = Pql.names_of_rows db Pql.Engine.(execute (prepare db q))

let ok = function Ok v -> v | Error e -> failwith (Vfs.errno_to_string e)

let () =
  print_endline "== quickstart: a provenance-aware system in five steps ==\n";

  (* 1. boot a machine with one PASS volume (Lasagna over ext3, Waldo
        attached, observer/analyzer/distributor in the kernel) *)
  let sys = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] () in
  let k = System.kernel sys in
  print_endline "1. booted: PASS volume vol0 mounted";

  (* 2. ordinary processes do ordinary I/O; provenance is collected
        invisibly (no application changes) *)
  let producer = Process.spawn sys ~parent:Kernel.init_pid () in
  Process.write_file producer "/vol0/raw-data.csv" "temp,pressure\n21,1.0\n23,1.1\n";
  let transformer = Process.spawn sys ~parent:Kernel.init_pid () in
  ok (Kernel.execve k ~pid:(Process.pid transformer) ~path:"/vol0/raw-data.csv" ~argv:[] ~env:[]);
  let raw = Process.read_file transformer "/vol0/raw-data.csv" in
  Process.write_file transformer "/vol0/clean-data.csv" (String.uppercase_ascii raw);
  print_endline "2. two processes ran: producer wrote raw-data.csv, transformer derived clean-data.csv";

  (* 3. a provenance-aware application can say *more* than the kernel can
        see: it creates a semantic object and links the file to it *)
  let lp = Option.get (Process.libpass transformer) in
  let dataset = Libpass.mkobj ~typ:"DATASET" ~name:"november-run" lp in
  let file = ok (Kernel.handle_of_path k "/vol0/clean-data.csv") in
  Libpass.disclose lp file [ Record.input (Pvalue.xref dataset.Dpapi.pnode 0) ];
  Libpass.sync lp dataset;
  print_endline "3. the application disclosed: clean-data.csv belongs to dataset \"november-run\"";

  (* 4. drain the WAP logs into the Waldo database *)
  let orphans = System.drain sys in
  let db = Option.get (System.waldo_db sys "vol0") in
  Printf.printf "4. drained logs into Waldo: %d nodes, %d records, %d orphaned txns\n"
    (Provdb.node_count db) (Provdb.quad_count db) orphans;

  (* 5. ask questions in PQL *)
  let show query =
    Printf.printf "\n   pql> %s\n" (String.concat " " (String.split_on_char '\n' query));
    List.iter (Printf.printf "        %s\n") (pql_names db query)
  in
  print_endline "5. querying:";
  show {|select A from Provenance.file as F F.input* as A where F.name = "clean-data.csv"|};
  show {|select F from Provenance.file as F
         where exists (select D from F.^input as D)|};
  show {|select O from Provenance.object as O where O.type = "DATASET"|};
  print_endline "\ndone: clean-data.csv traces back through the transformer process to";
  print_endline "raw-data.csv and its producer, and forward to the semantic dataset object."
