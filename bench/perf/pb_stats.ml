(* Order statistics and the per-layer self-time fold. *)

(* A percentile with the sample it came from: [beyond] samples lie
   above it, which is what decides whether the percentile is supported
   (at least ten beyond). *)
type pct = { p : float; value : float; samples : int; beyond : int }

(* Nearest-rank percentile of [xs] (need not be sorted). *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then { p; value = 0.; samples = 0; beyond = 0 }
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let rank = max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))) in
    { p; value = s.(rank - 1); samples = n; beyond = n - rank }
  end

let median xs = (percentile (Array.of_list xs) 50.).value

(* --- self time ------------------------------------------------------------ *)

(* Streaming fold over spans in completion order.  A span completes after
   every span nested in it, so when it arrives the summed durations of its
   children are known: self = duration - children.  [open_children] holds
   child sums of spans not yet seen; it must be empty once every root has
   completed, and then the self times of all layers sum exactly to the
   roots' durations. *)
type layer = { mutable calls : int; mutable self_ns : int }

type fold = {
  layers : (string, layer) Hashtbl.t;
  open_children : (int, int) Hashtbl.t;
  mutable root_ns : int;
  mutable roots : int;
  mutable negative : int;  (* spans whose children outlast them *)
}

let fold () =
  { layers = Hashtbl.create 16; open_children = Hashtbl.create 64; root_ns = 0;
    roots = 0; negative = 0 }

let layer f name =
  match Hashtbl.find_opt f.layers name with
  | Some l -> l
  | None ->
      let l = { calls = 0; self_ns = 0 } in
      Hashtbl.add f.layers name l;
      l

let add f ~id ~parent ~layer:name ~dur =
  let kids = Option.value (Hashtbl.find_opt f.open_children id) ~default:0 in
  Hashtbl.remove f.open_children id;
  let self = dur - kids in
  if self < 0 then f.negative <- f.negative + 1;
  let l = layer f name in
  l.calls <- l.calls + 1;
  l.self_ns <- l.self_ns + self;
  if parent = 0 then begin
    f.root_ns <- f.root_ns + dur;
    f.roots <- f.roots + 1
  end
  else
    Hashtbl.replace f.open_children parent
      (dur + Option.value (Hashtbl.find_opt f.open_children parent) ~default:0)

let add_span f (sp : Pvtrace.span) =
  add f ~id:sp.sp_id ~parent:sp.sp_parent ~layer:sp.sp_layer ~dur:sp.sp_dur_ns

let self_total f = Hashtbl.fold (fun _ l acc -> acc + l.self_ns) f.layers 0

(* Conservation: every span's parent was seen, no self time is negative,
   and the layers' self times add up to the roots' time exactly. *)
let conserved f =
  Hashtbl.length f.open_children = 0 && f.negative = 0 && self_total f = f.root_ns
