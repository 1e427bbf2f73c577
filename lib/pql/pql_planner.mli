(** Cost-based lowering of a parsed PQL query to a {!Pql_plan.t}.

    Decomposes WHERE into conjuncts and pushes each down to the earliest
    FROM binding covering its free variables; picks index probes
    (name/attr) over class scans when their posting-list cardinality is
    smaller; turns cross-binding equality conjuncts into hash joins; and
    estimates cardinalities from Provdb index statistics (posting
    lengths, class counts, average ancestry degree, and, when start
    pnodes are known at plan time, the size of each start's cone, a
    pnode-level walk of the hot tier's edges counted without building
    it and capped at 20 000 nodes).  That cone count is deferred to the
    first read of the estimate ({!Pql_plan.pp}), so planning walks no
    cone.

    Probes are supersets by construction — pushed conjuncts are still
    applied with exact evaluator semantics — so planning affects cost,
    never answers.  Plan selection rules are documented in DESIGN §15. *)

val plan : Provdb.t -> Pql_ast.query -> Pql_plan.t
(** Side-effect free on the database (statistics reads only; never
    faults the archive in).
    @raise Pql_eval.Error when a FROM references an unbound variable. *)

val name_glob : string -> Pql_ast.cond list -> string option
(** [name_glob b conds] is the pattern of the first [b.name ~ pat]
    conjunct in [conds] (attribute [name] in any case) whose glob has a
    non-empty literal prefix: the key of a {!Pql_plan.Name_prefix} probe
    of [b], whose range is that prefix. *)
