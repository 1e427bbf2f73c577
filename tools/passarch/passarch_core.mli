(** The passarch analyzer as a library, so the [passarch] executable,
    [passctl lint] and the fixture tests share one implementation.

    Four whole-program passes enforce the PASSv2 layer contracts
    statically: the LAYERS.sexp layer-map check over reconstructed
    module/dune dependency edges, the exception-escape analysis over the
    binding-level call graph, the hot-path purity pass over the
    bindings reachable from the [Dpapi.traced] record path, and the
    unused-export check over library interfaces.  See the
    implementation header for the rule catalogue. *)

val schema : string

val allowlist : unit -> Lintcommon.Allowlist.t
(** The in-source exemption table with justifications. *)

val run :
  ?root:string ->
  ?layers_file:string ->
  ?json:bool ->
  ?stale_check:bool ->
  unit ->
  int
(** Analyze the tree under [root] against [root]/[layers_file], print
    findings (text or JSON) and return the exit code: 1 when findings
    survive the allowlist or ([stale_check]) an allowlist entry matched
    nothing. *)

val findings :
  ?root:string -> ?layers_file:string -> unit -> Lintcommon.Finding.t list
(** The raw sorted findings with no allowlist applied — what the golden
    fixture tests assert against. *)
