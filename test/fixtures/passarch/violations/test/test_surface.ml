(* the only caller of Surface.tested: tests count as users *)
let () = assert (Surface.tested 1 = 0)
