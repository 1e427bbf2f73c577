(** Cost-based lowering of a parsed PQL query to a {!Pql_plan.t}.

    Decomposes WHERE into conjuncts and pushes each down to the earliest
    FROM binding covering its free variables; picks index probes
    (name/attr) over class scans when their posting-list cardinality is
    smaller; turns cross-binding equality conjuncts into hash joins; and
    estimates cardinalities from Provdb index statistics (posting
    lengths, class counts, average ancestry degree).  A walk whose start
    binder has its pnodes known at plan time (a name probe with at most
    16 postings) is estimated by running the step's own path from each
    start at its max version, as execute does; with nothing pushed on
    the walk's binder, and every probed pnode bound by the start step,
    that estimate is exactly the step's actual.  The
    walk is deferred to the first read of the estimate
    ({!Pql_plan.pp}), so neither planning nor execution runs it.

    Probes are supersets by construction — pushed conjuncts are still
    applied with exact evaluator semantics — so planning affects cost,
    never answers.  Plan selection rules are documented in DESIGN §15. *)

val plan : Provdb.t -> Pql_ast.query -> Pql_plan.t
(** Side-effect free on the database (statistics reads only; never
    faults the archive in).  Forcing a deferred walk estimate later walks
    as execute does, so it can fault the archive in.
    @raise Pql_eval.Error when a FROM references an unbound variable. *)

val name_glob : string -> Pql_ast.cond list -> string option
(** [name_glob b conds] is the pattern of the first [b.name ~ pat]
    conjunct in [conds] (attribute [name] in any case) whose glob has a
    non-empty literal prefix: the key of a {!Pql_plan.Name_prefix} probe
    of [b], whose range is that prefix. *)
