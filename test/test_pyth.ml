(* Pyth + PA-Python tests: language semantics (lexer/parser/interpreter),
   the sxml substrate, provenance wrappers, and the two §3.3 use cases
   (data origin, process validation) plus the §6.5 limitation. *)

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tstr = Alcotest.string

(* --- sxml ------------------------------------------------------------------- *)

let test_sxml_roundtrip () =
  let doc = {|<?xml version="1.0"?>
<experiment id="42" kind="thermo">
  <!-- a comment -->
  <sample name="s1"><reading stress="low">3.5</reading></sample>
  <sample name="s2"><reading stress="high">7.25</reading></sample>
  <note>5 &lt; 7 &amp; "quoted"</note>
</experiment>|}
  in
  let root = Sxml.parse doc in
  check tstr "root tag" "experiment" root.Sxml.tag;
  check tstr "attr" "42" (Option.get (Sxml.attr root "id"));
  check tint "samples" 2 (List.length (Sxml.children_named root "sample"));
  check tint "nested find_all" 2 (List.length (Sxml.find_all root "reading"));
  let note = Option.get (Sxml.first_child root "note") in
  check tstr "entities decoded" {|5 < 7 & "quoted"|} (Sxml.text_content note);
  (* print and reparse *)
  let again = Sxml.parse (Sxml.to_string root) in
  check tstr "roundtrip stable" (Sxml.to_string root) (Sxml.to_string again)

let test_sxml_errors () =
  let bad s =
    match Sxml.parse s with
    | exception Sxml.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  bad "<a><b></a>";
  bad "<a";
  bad "<a>&bogus;</a>";
  bad "<a></a><b></b>"

(* --- the language ------------------------------------------------------------ *)

let pass_system () = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "vol0" ] ()

let fresh ?(provenance = false) () =
  let sys = pass_system () in
  let p = Process.spawn sys ~parent:Kernel.init_pid () in
  let session = Pyth.create ~provenance ~module_dir:"/vol0/lib" p in
  (sys, p, session)

let run_and_output source =
  let _sys, _p, s = fresh () in
  Pyth.run s source;
  Pyth.output s

let test_arithmetic_and_print () =
  check tstr "arithmetic" "7\n2.5\nTrue\n" (run_and_output "print(1 + 2 * 3)\nprint(5 / 2.0)\nprint(3 < 4)\n")

let test_strings_and_lists () =
  let out =
    run_and_output
      {|xs = [1, 2, 3]
append(xs, 4)
print(len(xs))
print(xs[0] + xs[-1])
s = "hello" + " " + "world"
print(s)
print("wor" in s)
|}
  in
  check tstr "containers" "4\n5\nhello world\nTrue\n" out

let test_control_flow () =
  let out =
    run_and_output
      {|total = 0
for i in range(10):
    if i % 2 == 0:
        total = total + i
    elif i == 7:
        continue
    else:
        total = total + 1
print(total)
n = 0
while True:
    n = n + 1
    if n == 5:
        break
print(n)
|}
  in
  check tstr "loops" "24\n5\n" out

let test_functions_and_recursion () =
  let out =
    run_and_output
      {|def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
print(fib(15))
def make_adder(k):
    def add(x):
        return x + k
    return add
plus3 = make_adder(3)
print(plus3(4))
|}
  in
  check tstr "functions, closures" "610\n7\n" out

let test_string_builtins () =
  let out =
    run_and_output
      {|print(endswith("file.xml", ".xml"))
print(endswith("file.xml", ".csv"))
print(strip("  hi  "))
print(upper("abc") + lower("DEF"))
print(replace("a-b-c", "-", "+"))
print(join(",", split("a b c", " ")))
|}
  in
  check tstr "string builtins" "True\nFalse\nhi\nABCdef\na+b+c\na,b,c\n" out

let test_dicts () =
  let out =
    run_and_output
      {|d = {"a": 1, "b": 2}
d["c"] = 3
d["a"] = 10
print(d["a"] + d["b"] + d["c"])
print("b" in d)
|}
  in
  check tstr "dicts" "15\nTrue\n" out

let test_runtime_errors () =
  let expect_error source =
    let _sys, _p, s = fresh () in
    match Pyth.run s source with
    | exception (Pyth_interp.Runtime_error _ | Pyth_value.Type_error _) -> ()
    | _ -> Alcotest.failf "expected runtime error for %S" source
  in
  expect_error "print(undefined_name)\n";
  expect_error "x = 1 / 0\n";
  expect_error "x = [1]\nprint(x[5])\n";
  expect_error "x = \"s\" - 1\n";
  expect_error "import nonexistent\n"

let test_parse_errors () =
  let expect_error source =
    match Pyth_parser.parse source with
    | exception (Pyth_parser.Error _ | Pyth_lexer.Error _) -> ()
    | _ -> Alcotest.failf "expected parse error for %S" source
  in
  expect_error "def f(:\n    pass\n";
  expect_error "if True\n    pass\n";
  expect_error "x = = 3\n";
  expect_error "x = 'unterminated\n"

let test_file_io_via_kernel () =
  let sys, _p, s = fresh () in
  Pyth.run s
    {|writefile("/vol0/note.txt", "written by pyth")
print(readfile("/vol0/note.txt"))
|};
  check tstr "file io" "written by pyth\n" (Pyth.output s);
  ignore (sys : System.t)

let test_import_module_from_disk () =
  let _, p, s = fresh () in
  Process.write_file p "/vol0/lib/util.py"
    {|def double(x):
    return x * 2
CONST = 21
|};
  Pyth.run s {|import util
print(util.double(util.CONST))
|};
  check tstr "import" "42\n" (Pyth.output s)

let test_xml_module () =
  let _, p, s = fresh () in
  Process.write_file p "/vol0/data.xml"
    {|<log><entry v="1"/><entry v="2"/><entry v="3"/></log>|};
  Pyth.run s
    {|import xml
doc = xml.parse_file("/vol0/data.xml")
entries = xml.findall(doc, "entry")
print(len(entries))
total = 0
for e in entries:
    total = total + int(xml.attr(e, "v"))
print(total)
|};
  check tstr "xml module" "3\n6\n" (Pyth.output s)

(* --- PA-Python: provenance wrappers ------------------------------------------- *)

let drain_db sys =
  ignore (System.drain sys : int);
  Option.get (System.waldo_db sys "vol0")

let thermography_setup () =
  let sys, p, s = fresh ~provenance:true () in
  (* 6 XML experiment logs; only stress="low" ones feed the plot *)
  for i = 1 to 6 do
    let stress = if i mod 2 = 0 then "high" else "low" in
    Process.write_file p
      (Printf.sprintf "/vol0/data/exp%d.xml" i)
      (Printf.sprintf
         {|<experiment stress="%s"><crack length="%d.5" heating="%d.25"/></experiment>|}
         stress i i)
  done;
  (* the analysis library, loaded from disk *)
  Process.write_file p "/vol0/lib/thermo.py"
    {|def heating(doc):
    import xml
    cracks = xml.findall(doc, "crack")
    h = 0.0
    for c in cracks:
        h = h + float(xml.attr(c, "heating"))
    return h
|};
  (sys, p, s)

let analysis_script =
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
plot.plot(points, "crack heating vs length", "/vol0/out/plot.dat")
|}

let test_thermography_data_origin () =
  (* §3.3 use case 1: the script reads ALL the XML files but uses a
     subset.  PASS alone says the plot derives from all files; PA-Python
     narrows it to the documents actually used. *)
  let sys, _p, s = thermography_setup () in
  Pyth.run s analysis_script;
  let db = drain_db sys in
  check tbool "db acyclic" true (Helpers.acyclic db);
  (* PASS's coarse view: the analysis program read ALL the XML files, so
     at file granularity the plot derives from every one of them *)
  let coarse =
    Helpers.pql_names db
      {|select A from Provenance.file as P P.input* as A where P.name = "plot.dat"|}
  in
  check tbool "coarse view includes unused exp2" true (List.mem "exp2.xml" coarse);
  check tbool "coarse view includes used exp1" true (List.mem "exp1.xml" coarse);
  (* the layered view: walk only through the PA-Python invocation layer —
     the plot's invocation-level ancestry names exactly the documents
     actually used *)
  let fine =
    Helpers.pql_names db
      {|select A from Provenance.file as P, P.input as I, I.input* as A
        where P.name = "plot.dat" and I.type = "INVOCATION"|}
  in
  check tbool "used file exp1 present" true (List.mem "exp1.xml" fine);
  check tbool "used file exp3 present" true (List.mem "exp3.xml" fine);
  check tbool "used file exp5 present" true (List.mem "exp5.xml" fine);
  check tbool "unused exp2 absent" false (List.mem "exp2.xml" fine);
  check tbool "unused exp4 absent" false (List.mem "exp4.xml" fine)

let test_process_validation () =
  (* §3.3 use case 2: which outputs descend from both the calculation
     routine and the (upgraded) library file? *)
  let sys, _p, s = thermography_setup () in
  Pyth.run s analysis_script;
  let db = drain_db sys in
  let tainted =
    Helpers.pql_names db
      {|select P from Provenance.file as P
        where exists (select A from P.input* as A where A.name = "thermo.heating")
          and exists (select L from P.input* as L where L.name = "thermo.py")|}
  in
  check tbool "plot flagged by routine+library" true (List.mem "plot.dat" tainted)

let test_builtin_operator_loses_provenance () =
  (* the §6.5 lesson: provenance is lost across built-in operators *)
  let sys, p, s = fresh ~provenance:true () in
  Process.write_file p "/vol0/in.xml" {|<d v="1"/>|};
  Pyth.run s
    {|import xml
doc = xml.parse_file("/vol0/in.xml")
tag = xml.attr(doc, "v")
laundered = tag + ""
writefile("/vol0/tagged.out", tag)
writefile("/vol0/laundered.out", laundered)
|};
  let db = drain_db sys in
  (* compare at the invocation layer: the process-level view includes
     in.xml for both files (the process read it), but only the tagged
     value's invocation chain reaches the source file *)
  let fine_ancestry_of name =
    Helpers.pql_names db
      (Printf.sprintf
         {|select A from Provenance.file as F, F.input as I, I.input* as A
           where F.name = "%s" and I.type = "INVOCATION"|}
         name)
  in
  check tbool "wrapped path keeps the source file" true
    (List.mem "in.xml" (fine_ancestry_of "tagged.out"));
  check tbool "builtin '+' laundered the provenance" false
    (List.mem "in.xml" (fine_ancestry_of "laundered.out"))

let test_invocation_counts () =
  let sys, _p, s = thermography_setup () in
  Pyth.run s analysis_script;
  (match s.Pyth.wrappers with
  | Some w -> check tbool "invocations recorded" true (Provwrap.invocation_count w > 10)
  | None -> Alcotest.fail "wrappers expected");
  ignore (sys : System.t)

let suite =
  [
    Alcotest.test_case "sxml: parse/print roundtrip" `Quick test_sxml_roundtrip;
    Alcotest.test_case "sxml: malformed input rejected" `Quick test_sxml_errors;
    Alcotest.test_case "pyth: arithmetic and print" `Quick test_arithmetic_and_print;
    Alcotest.test_case "pyth: strings and lists" `Quick test_strings_and_lists;
    Alcotest.test_case "pyth: control flow" `Quick test_control_flow;
    Alcotest.test_case "pyth: functions and closures" `Quick test_functions_and_recursion;
    Alcotest.test_case "pyth: string builtins" `Quick test_string_builtins;
    Alcotest.test_case "pyth: dicts" `Quick test_dicts;
    Alcotest.test_case "pyth: runtime errors" `Quick test_runtime_errors;
    Alcotest.test_case "pyth: parse errors" `Quick test_parse_errors;
    Alcotest.test_case "pyth: file io via kernel" `Quick test_file_io_via_kernel;
    Alcotest.test_case "pyth: import module from disk" `Quick test_import_module_from_disk;
    Alcotest.test_case "pyth: xml module" `Quick test_xml_module;
    Alcotest.test_case "PA-Python: data origin (§3.3)" `Quick test_thermography_data_origin;
    Alcotest.test_case "PA-Python: process validation (§3.3)" `Quick test_process_validation;
    Alcotest.test_case "PA-Python: builtins launder provenance (§6.5)" `Quick
      test_builtin_operator_loses_provenance;
    Alcotest.test_case "PA-Python: invocation accounting" `Quick test_invocation_counts;
  ]
