(** Indexers (paper Sections 5.1.2 and 5.2.1): the one type-parameterized
    component of the collection store.

    An indexer identifies an index on a collection: a {e pure} extractor
    producing the key from an object (functional indexing — keys can be
    variable-sized or derived, e.g. [view_count + print_count]), whether
    keys are unique, the index implementation, and optionally a promise
    that the key never changes for a stored object (which lets the
    collection store skip its pre-update snapshot, Section 5.2.3). *)

(** Index implementation (paper Section 5.2.4). *)
type impl =
  | Btree  (** ordered; supports scan (in key order), exact and range *)
  | Hash  (** Larson linear hashing; exact and unordered scan *)
  | List  (** insertion-ordered; cheap appends, linear queries *)

val impl_to_byte : impl -> int
val impl_of_byte : int -> impl
val impl_name : impl -> string

type ('a, 'k) t = {
  name : string;  (** unique within a collection, persistent *)
  key : 'k Gkey.t;
  extract : 'a -> 'k;  (** must be pure *)
  unique : bool;
  impl : impl;
  immutable : bool;
}

val make :
  name:string ->
  key:'k Gkey.t ->
  extract:('a -> 'k) ->
  ?unique:bool ->
  ?impl:impl ->
  ?immutable:bool ->
  unit ->
  ('a, 'k) t

val key_bytes : ('a, 'k) t -> 'a -> string
(** Extracted key in canonical pickled form. *)

(** {1 GenericIndexer} — the key-type-erased view the collection uses. *)

type 'a generic = Generic : ('a, 'k) t -> 'a generic

val generic_name : 'a generic -> string
val generic_key_bytes : 'a generic -> 'a -> string
val generic_immutable : 'a generic -> bool
