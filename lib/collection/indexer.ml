(** Indexers (paper Section 5.1.2/5.2.1): the one type-parameterized class
    in the collection store.

    An indexer identifies an index on a collection: a *pure* extractor
    function producing the key from an object (functional indexing, so keys
    can be variable-sized or derived — e.g. [view_count + print_count]),
    whether keys are unique, and the index implementation (B-tree, dynamic
    hash table, or list). *)

type impl = Btree | Hash | List

let impl_to_byte = function Btree -> 0 | Hash -> 1 | List -> 2
let impl_of_byte = function 0 -> Btree | 1 -> Hash | 2 -> List | n -> invalid_arg (Printf.sprintf "bad index impl %d" n)
let impl_name = function Btree -> "btree" | Hash -> "hash" | List -> "list"

type ('a, 'k) t = {
  name : string; (* unique within a collection, persistent *)
  key : 'k Gkey.t;
  extract : 'a -> 'k; (* must be pure *)
  unique : bool;
  impl : impl;
  immutable : bool;
      (* declared never to change for a stored object: the collection store
         skips recording such keys in the pre-update snapshot (paper
         Section 5.2.3's storage optimization) *)
}

let make ~(name : string) ~(key : 'k Gkey.t) ~(extract : 'a -> 'k) ?(unique = false) ?(impl = Btree)
    ?(immutable = false) () : ('a, 'k) t =
  { name; key; extract; unique; impl; immutable }

(** Extract a key in canonical pickled form. *)
let key_bytes (ix : ('a, 'k) t) (v : 'a) : string = Gkey.to_bytes ix.key (ix.extract v)

(** The GenericIndexer view: everything the collection needs without the
    key type. *)
type 'a generic = Generic : ('a, 'k) t -> 'a generic

let generic_name (Generic ix) = ix.name
let generic_key_bytes (Generic ix) (v : 'a) = key_bytes ix v
let generic_immutable (Generic ix) = ix.immutable
