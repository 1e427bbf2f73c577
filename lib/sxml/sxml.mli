(** A small XML parser and printer.

    The substrate for the PA-Python thermography use case (paper, Section
    3.3), whose experiment logs are XML files.  Supports elements,
    attributes, text, self-closing tags, declarations, comments and the
    five standard entities; no DTDs, namespaces or CDATA. *)

type node =
  | Element of element
  | Text of string

and element = { tag : string; attrs : (string * string) list; children : node list }

exception Parse_error of string * int

val parse : string -> element
(** Parse a whole document (prolog allowed) to its root element.
    @raise Parse_error. *)

val to_string : element -> string
(** Serialize (entities re-encoded); [parse] of the result is stable. *)

val attr : element -> string -> string option
val children_named : element -> string -> element list
val first_child : element -> string -> element option
val text_content : element -> string

val find_all : element -> string -> element list
(** All descendants with the given tag, in document order. *)
