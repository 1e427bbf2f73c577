(* clean consumer: catches below, keeps the cross-layer reference that
   makes mid's escapes reportable *)
let run n = try Esc_bad.boom (Hot_bad.run n) with Failure _ -> 0

(* Surface.opened is referenced only as a bare name under the open;
   this is also Esc_bad.relay's cross-layer caller *)
open Surface
let relay n = try opened (Esc_bad.relay n) with _ -> 0
