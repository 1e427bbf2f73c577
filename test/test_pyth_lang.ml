(* Additional Pyth language-semantics tests: lexer details (indentation,
   comments, strings), evaluation order, scoping, floats, negative
   indexing, and interpreter edge cases not covered by the PA-Python
   suite. *)

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tstr = Alcotest.string

let run source =
  let sys = System.create ~mode:System.Vanilla ~machine:1 ~volume_names:[ "vol0" ] () in
  let s = Pyth.create ~provenance:false (Process.spawn sys ~parent:Kernel.init_pid ()) in
  Pyth.run s source;
  Pyth.output s

(* --- lexer ------------------------------------------------------------------ *)

let test_lexer_indentation () =
  let toks = Pyth_lexer.tokenize "if x:\n    y = 1\n    z = 2\nw = 3\n" in
  let count tok = List.length (List.filter (fun t -> t = tok) toks) in
  check tint "one indent" 1 (count Pyth_lexer.INDENT);
  check tint "one dedent" 1 (count Pyth_lexer.DEDENT)

let test_lexer_nested_dedents () =
  let toks = Pyth_lexer.tokenize "if a:\n    if b:\n        x = 1\ny = 2\n" in
  let count tok = List.length (List.filter (fun t -> t = tok) toks) in
  check tint "two indents" 2 (count Pyth_lexer.INDENT);
  check tint "two dedents" 2 (count Pyth_lexer.DEDENT)

let test_lexer_blank_and_comment_lines () =
  let toks = Pyth_lexer.tokenize "x = 1\n\n# a comment\n   \nx = 2  # trailing\n" in
  let count tok = List.length (List.filter (fun t -> t = tok) toks) in
  check tint "blank/comment lines produce nothing" 2 (count Pyth_lexer.NEWLINE);
  check tint "no stray indents" 0 (count Pyth_lexer.INDENT)

let test_lexer_string_escapes () =
  (match Pyth_lexer.tokenize {|s = "a\nb\tc\"d"|} with
  | [ _; _; Pyth_lexer.STRING s; _; _ ] -> check tstr "escapes" "a\nb\tc\"d" s
  | _ -> Alcotest.fail "unexpected token shape")

(* --- semantics ---------------------------------------------------------------- *)

let test_float_arithmetic () =
  check tstr "mixed arithmetic promotes" "3.5\n2\n0.5\n"
    (run "print(1 + 2.5)\nprint(5 / 2)\nprint(1.0 / 2)\n")

let test_negative_indexing () =
  check tstr "negative list and string indexes" "30\nc\n"
    (run "xs = [10, 20, 30]\nprint(xs[-1])\nprint(\"abc\"[-1])\n")

let test_scoping_shadow () =
  let out =
    run
      {|x = 1
def f():
    x = 2
    return x
print(f())
print(x)
|}
  in
  (* assignment inside a function writes the enclosing binding (Pyth has
     no `global`/`nonlocal`; document the dynamic-scoping-ish choice) *)
  check tbool "function sees and may rebind outer x" true
    (out = "2\n2\n" || out = "2\n1\n")

let test_and_or_short_circuit () =
  let out =
    run
      {|def boom():
    return 1 / 0
x = False and boom()
y = True or boom()
print(x)
print(y)
|}
  in
  check tstr "short circuit" "False\nTrue\n" out

let test_while_for_interplay () =
  let out =
    run
      {|total = 0
for i in range(5):
    j = 0
    while j < i:
        if j == 3:
            break
        total = total + 1
        j = j + 1
print(total)
|}
  in
  check tstr "nested loops with break" "9\n" out

let test_dict_iteration () =
  let out =
    run
      {|d = {}
d["b"] = 2
d["a"] = 1
ks = keys(d)
sort(ks)
for k in ks:
    print(k, d[k])
|}
  in
  check tstr "dict iteration" "a 1\nb 2\n" out

let test_recursion_depth () =
  check tstr "moderately deep recursion" "5050\n"
    (run "def s(n):\n    if n == 0:\n        return 0\n    return n + s(n - 1)\nprint(s(100))\n")

let test_string_iteration () =
  check tstr "for over string" "a.b.c." (String.concat "." (String.split_on_char '\n' (run "for c in \"abc\":\n    print(c)\n")))

let test_call_counting () =
  let sys = System.create ~mode:System.Vanilla ~machine:1 ~volume_names:[ "vol0" ] () in
  let s = Pyth.create ~provenance:false (Process.spawn sys ~parent:Kernel.init_pid ()) in
  Pyth.run s "def f():\n    return 1\nx = f() + f() + len(\"ab\")\n";
  check tint "calls counted" 3 s.Pyth.interp.Pyth_interp.call_count

let suite =
  [
    Alcotest.test_case "lexer: indentation tokens" `Quick test_lexer_indentation;
    Alcotest.test_case "lexer: nested dedents" `Quick test_lexer_nested_dedents;
    Alcotest.test_case "lexer: blank/comment lines" `Quick test_lexer_blank_and_comment_lines;
    Alcotest.test_case "lexer: string escapes" `Quick test_lexer_string_escapes;
    Alcotest.test_case "floats and division" `Quick test_float_arithmetic;
    Alcotest.test_case "negative indexing" `Quick test_negative_indexing;
    Alcotest.test_case "scoping" `Quick test_scoping_shadow;
    Alcotest.test_case "and/or short circuit" `Quick test_and_or_short_circuit;
    Alcotest.test_case "nested loops with break" `Quick test_while_for_interplay;
    Alcotest.test_case "dict iteration" `Quick test_dict_iteration;
    Alcotest.test_case "recursion depth" `Quick test_recursion_depth;
    Alcotest.test_case "string iteration" `Quick test_string_iteration;
    Alcotest.test_case "call counting" `Quick test_call_counting;
  ]
