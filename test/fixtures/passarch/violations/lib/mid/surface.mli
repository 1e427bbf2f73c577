(* unused-export: [dead] has no caller anywhere and [internal] is used
   only inside surface.ml (both flagged); [opened] is used only through
   [open Surface], [tested] only from a test-layer file (neither is) *)
val dead : int -> int
val opened : int -> int
val tested : int -> int
val internal : int -> int
