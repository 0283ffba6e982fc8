(** Hash tables keyed by non-negative ints — chunk and object ids — that
    hash a key to itself (see int_table.mli). *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)
