(* Per-machine provenance context: the pnode allocator plus the authority
   for the version history of every live object.

   Every version of an object has a *birth stamp* drawn from a logical clock
   that ticks whenever a version is created.  The analyzer's cycle-avoidance
   rule only ever compares two stamps, which is what makes it a local
   algorithm (paper §5.4). *)

type vstate = {
  mutable eff_birth : int;
      (* effective birth: may be lowered while the version has no
         outgoing ancestry edges (see Analyzer's cycle-avoidance rule) *)
  mutable has_out : bool; (* has admitted outgoing ancestry edges *)
}

type obj_state = {
  mutable version : int;
  births : (int, vstate) Hashtbl.t; (* version -> birth state *)
}

type t = {
  alloc : Pnode.allocator;
  objects : (Pnode.t, obj_state) Hashtbl.t;
  mutable logical_clock : int;
}

let create ~machine =
  { alloc = Pnode.allocator ~machine; objects = Hashtbl.create 512; logical_clock = 0 }

let tick t =
  t.logical_clock <- t.logical_clock + 1;
  t.logical_clock

let state t pnode =
  match Hashtbl.find_opt t.objects pnode with
  | Some st -> st
  | None ->
      let births = Hashtbl.create 4 in
      Hashtbl.add births 0 { eff_birth = tick t; has_out = false };
      let st = { version = 0; births } in
      Hashtbl.add t.objects pnode st;
      st

let fresh t =
  let pnode = Pnode.fresh t.alloc in
  let _ : obj_state = state t pnode in
  pnode

let adopt t pnode ~version =
  let st = state t pnode in
  if version > st.version then begin
    st.version <- version;
    Hashtbl.replace st.births version { eff_birth = tick t; has_out = false }
  end

let current_version t pnode = (state t pnode).version

let vstate_at t pnode ~version =
  let st = state t pnode in
  match Hashtbl.find_opt st.births version with
  | Some vs -> vs
  | None ->
      (* versions adopted from other machines may have gaps; unknown old
         versions are treated as born at time 0 (conservative: an edge to
         them is always allowed, and as closed versions they cannot gain
         dependencies through this machine's analyzer) *)
      let vs =
        if version >= st.version then { eff_birth = tick t; has_out = false }
        else { eff_birth = 0; has_out = true }
      in
      Hashtbl.replace st.births version vs;
      vs

let birth t pnode =
  let st = state t pnode in
  (vstate_at t pnode ~version:st.version).eff_birth

let birth_at t pnode ~version = (vstate_at t pnode ~version).eff_birth

let has_out t pnode ~version = (vstate_at t pnode ~version).has_out

let mark_out t pnode ~version = (vstate_at t pnode ~version).has_out <- true

(* Lower a version's effective birth below [bound].  Only legal while the
   version has no outgoing ancestry edges; edges *into* it only ever
   required its birth to be smaller, so lowering preserves them. *)
let lower_birth t pnode ~version ~below =
  let vs = vstate_at t pnode ~version in
  assert (not vs.has_out);
  if vs.eff_birth >= below then vs.eff_birth <- below - 1

let freeze t pnode =
  let st = state t pnode in
  st.version <- st.version + 1;
  Hashtbl.replace st.births st.version { eff_birth = tick t; has_out = false };
  st.version

let known t pnode = Hashtbl.mem t.objects pnode
