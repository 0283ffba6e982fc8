(** Hash tables keyed by ints — chunk and object ids, or an object
    store's [lnot oid] for a removed object's pin — that hash a key to
    itself, sign bit cleared (see int_table.mli). *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)
