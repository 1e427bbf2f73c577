(* libpass (paper §5.1): the user-level library that exports the DPAPI to
   applications.  Provenance-aware applications link against it and use it
   to disclose provenance; it adds small conveniences over the raw endpoint
   (named object creation, record builders, error raising). *)

exception Pass_error of Dpapi.error

let check = function Ok v -> v | Error e -> raise (Pass_error e)

type t = { ep : Dpapi.endpoint; pid : int }

let connect ~endpoint ~pid = { ep = endpoint; pid }
let pid t = t.pid

let mkobj ?volume ?typ:ty ?name:nm t =
  let h = check (t.ep.pass_mkobj ~volume) in
  let records =
    (match ty with Some s -> [ Record.typ s ] | None -> [])
    @ (match nm with Some s -> [ Record.name s ] | None -> [])
  in
  if records <> [] then check (Dpapi.disclose t.ep h records);
  h

let reviveobj t pnode version = check (t.ep.pass_reviveobj pnode version)

let disclose t handle records = check (Dpapi.disclose t.ep handle records)

let relate t ~child ~parent ~parent_version =
  disclose t child [ Record.input_of parent.Dpapi.pnode parent_version ]

let read t handle ~off ~len = check (t.ep.pass_read handle ~off ~len)

let write t handle ~off ~data ~records =
  check (t.ep.pass_write handle ~off ~data:(Some data) [ Dpapi.entry handle records ])

let sync t handle = check (t.ep.pass_sync handle)
