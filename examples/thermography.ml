(* The PA-Python use cases (paper §3.3): the Iowa State Thermography
   Research Group's crack-heating analysis.

     dune exec examples/thermography.exe

   Use case 1 (data origin): the analysis script reads *all* the XML
   experiment logs to decide which to use, so PASS alone reports the plot
   derives from every file; PA-Python narrows it to the documents that
   actually fed the plot.

   Use case 2 (process validation): a library upgrade introduced a bug in
   a calculation routine; which outputs are affected?  Only the layered
   view — routine AND library version — answers it. *)

let pql_names db q = Pql.names_of_rows db Pql.Engine.(execute (prepare db q))

let () =
  print_endline "== §3.3: provenance-aware Python ==\n";
  let sys = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] () in
  let p = Process.spawn sys ~parent:Kernel.init_pid () in

  (* ~400 experiments on 60 specimens, stored as XML by the acquisition
     system (scaled down to 12 files here) *)
  for i = 1 to 12 do
    let stress = if i mod 3 = 0 then "high" else "low" in
    Process.write_file p
      (Printf.sprintf "/vol0/data/exp%02d.xml" i)
      (Printf.sprintf
         {|<experiment stress="%s" specimen="s%d"><crack length="%d.5" heating="%d.25"/></experiment>|}
         stress (i mod 6) i i)
  done;
  print_endline "wrote 12 XML experiment logs (8 low-stress, 4 high-stress)";

  (* the analysis library, as upgraded on one of the machines *)
  Process.write_file p "/vol0/lib/thermo.py"
    {|VERSION = "2.0-upgraded"
def heating(doc):
    import xml
    cracks = xml.findall(doc, "crack")
    h = 0.0
    for c in cracks:
        h = h + float(xml.attr(c, "heating"))
    return h
|};
  print_endline "installed thermo.py v2.0 (the upgraded — buggy — library)\n";

  (* the team member's analysis script: plot crack heating for the
     low-stress classification *)
  let session = Pyth.create ~provenance:true ~module_dir:"/vol0/lib" p in
  Pyth.run session
    {|import xml
import plot
import thermo
docs = []
for f in listdir("/vol0/data"):
    d = xml.parse_file("/vol0/data/" + f)
    if xml.attr(d, "stress") == "low":
        append(docs, d)
points = []
i = 1
for d in docs:
    append(points, [float(i), thermo.heating(d)])
    i = i + 1
plot.plot(points, "crack heating vs length (low stress)", "/vol0/out/heating-low.dat")
print("plotted " + str(len(docs)) + " low-stress experiments")
|};
  print_string (Pyth.output session);
  (match session.Pyth.wrappers with
  | Some w -> Printf.printf "PA-Python recorded %d wrapped invocations\n" (Provwrap.invocation_count w)
  | None -> ());

  ignore (System.drain sys : int);
  let db = Option.get (System.waldo_db sys "vol0") in

  print_endline "\n-- use case 1: which XML files actually fed the plot? --";
  let coarse =
    pql_names db
      {|select A from Provenance.file as P P.input* as A where P.name = "heating-low.dat"|}
    |> List.filter (fun n -> String.length n > 4 && Filename.check_suffix n ".xml")
  in
  Printf.printf "PASS alone (file granularity): %d XML ancestors — every file the script read\n"
    (List.length coarse);
  let fine =
    pql_names db
      {|select A from Provenance.file as P, P.input as I, I.input* as A
        where P.name = "heating-low.dat" and I.type = "INVOCATION"|}
    |> List.filter (fun n -> Filename.check_suffix n ".xml")
  in
  Printf.printf "with PA-Python (invocation granularity): %d XML ancestors — only the ones used:\n"
    (List.length fine);
  List.iter (fun n -> Printf.printf "  %s\n" n) fine;

  print_endline "\n-- use case 2: which outputs used the buggy routine in the new library? --";
  let tainted =
    pql_names db
      {|select P from Provenance.file as P
        where exists (select A from P.input* as A where A.name = "thermo.heating")
          and exists (select L from P.input* as L where L.name = "thermo.py")|}
  in
  Printf.printf "outputs descending from BOTH thermo.heating AND thermo.py: %s\n"
    (String.concat ", " tainted);
  print_endline "those are exactly the results to regenerate after the bug fix.";

  print_endline "\n-- the §6.5 limitation, demonstrated --";
  Pyth.run session
    {|import xml
d = xml.parse_file("/vol0/data/exp01.xml")
tag = xml.attr(d, "specimen")
laundered = tag + ""
writefile("/vol0/out/tagged.txt", tag)
writefile("/vol0/out/laundered.txt", laundered)
|};
  ignore (System.drain sys : int);
  let db = Option.get (System.waldo_db sys "vol0") in
  let fine_ancestry name =
    pql_names db
      (Printf.sprintf
         {|select A from Provenance.file as F, F.input as I, I.input* as A
           where F.name = "%s" and I.type = "INVOCATION"|}
         name)
  in
  Printf.printf "tagged.txt    invocation-level ancestry includes exp01.xml: %b\n"
    (List.mem "exp01.xml" (fine_ancestry "tagged.txt"));
  Printf.printf "laundered.txt (value passed through built-in '+'): %b\n"
    (List.mem "exp01.xml" (fine_ancestry "laundered.txt"));
  print_endline "wrapping functions makes an application provenance-aware; built-in";
  print_endline "operators still launder tags — making Python itself provenance-aware";
  print_endline "would require modifying the interpreter (left as future work in the paper)."
