(* unsafe-bytes fixture: three aliasing conversions are caught; the
   copying conversions are not. *)

let frozen b = Bytes.unsafe_to_string b

let thawed s = Bytes.unsafe_of_string s

let qualified b = Stdlib.Bytes.unsafe_to_string b

let copies b s = (Bytes.to_string b, Bytes.of_string s)
