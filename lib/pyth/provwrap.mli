(** Provenance-Aware Python, as wrappers (paper, Section 6.4).

    Wraps modules and functions with code that creates PASS objects for
    them (TYPE=FUNCTION), creates an invocation object per call
    (TYPE=INVOCATION), and records INPUT relationships between each
    tagged input and the invocation and between the invocation and its
    output.  Declared reader/writer functions additionally link
    invocations to the files they touch, and functions imported from
    module files link to the module file (the process-validation use
    case).  Values passed through unwrapped built-in operators lose
    their tags — the Section 6.5 limitation, preserved deliberately. *)

type t

val enable :
  Pyth_interp.t -> lp:Pass_core.Libpass.t -> Process.t -> module_path:(string -> string option) -> t
(** Wrap the standard modules already installed, every module imported
    later, and the [readfile]/[writefile] globals, disclosing through [lp]
    about the files the process names. *)

val invocation_count : t -> int
