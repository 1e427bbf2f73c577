(** Little-endian wire primitives.

    Shared by the provenance record format, the ext3 journal, the Lasagna
    WAP log and the PA-NFS protocol, so every on-disk and on-wire format in
    the system decodes the same way. *)

exception Corrupt of string

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Corrupt} with a formatted message. *)

val put_u8 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
val put_i64 : Buffer.t -> int -> unit
val put_string : Buffer.t -> string -> unit
val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

val get_u8 : string -> int ref -> int
val get_u32 : string -> int ref -> int
val get_i64 : string -> int ref -> int
val get_string : string -> int ref -> string
val get_list : (string -> int ref -> 'a) -> string -> int ref -> 'a list
