(** The collection store (paper Section 5): keyed access to collections of
    objects with automatically maintained functional indexes.

    A collection is a set of objects of one schema class sharing one or
    more indexes; every object belongs to at most one collection. Keys are
    produced by the pure extractor functions of registered {!Indexer}s, so
    they can be variable-sized or derived values, and indexes can be added
    or removed without rebuilding the database.

    Queries return {e insensitive} iterators — an iterator never observes
    the effects of updates made through it (no Halloween anomalies). The
    four constraints of Section 5.2.2 are enforced at runtime:
    + writable references to collection objects exist only by
      dereferencing an iterator;
    + an iterator may be dereferenced writable only while it is the sole
      open iterator on its collection ({!Concurrent_iterators});
    + iterators advance in one direction only;
    + index maintenance is deferred until {!close}, using pre/post key
      snapshots (Section 5.2.3) — so duplicate keys in unique indexes can
      surface only at close, where the offending objects are removed from
      the collection and reported ({!Unique_violation}). *)

type oid = Tdb_objstore.Object_store.oid

exception Unknown_index of string
(** The named index does not exist on the collection. *)

exception Missing_indexer of string
(** A persisted index has no registered {!Indexer} (extractors cannot be
    stored; re-register them when opening the collection). *)

exception Last_index
(** A collection must keep at least one index (paper Figure 6). *)

exception Concurrent_iterators
exception Iterator_closed
exception Not_in_collection of oid

exception Unique_violation of { index : string; removed : oid list }
(** Raised at iterator close: the listed objects were removed from the
    collection so the application can re-integrate them. *)

(** {1 Transactions} (paper Figure 5: CTransaction) *)

type t
(** A collection-store transaction. *)

val begin_ : Tdb_objstore.Object_store.t -> t

val commit : ?durable:bool -> t -> unit
(** @raise Invalid_argument while iterators are still open. *)

val abort : t -> unit
val with_ctxn : ?durable:bool -> Tdb_objstore.Object_store.t -> (t -> 'a) -> 'a

val txn : t -> Tdb_objstore.Object_store.txn
(** Escape hatch to the object-store transaction (for objects outside any
    collection). Writing {e collection} objects through it would break
    iterator insensitivity — don't. *)

(** {1 Collections} *)

type 'a collection
(** Handle to a collection of schema class ['a]. *)

val create_collection :
  t -> name:string -> schema:'a Tdb_objstore.Obj_class.t -> ('a, 'k) Indexer.t -> 'a collection
(** Create a named collection with one initial index. *)

val open_collection :
  ?indexers:'a Indexer.generic list -> t -> name:string -> schema:'a Tdb_objstore.Obj_class.t -> 'a collection
(** Open an existing collection, re-registering its indexers.
    @raise Tdb_objstore.Obj_class.Type_mismatch if [schema] differs from the stored one. *)

val collection_exists : t -> name:string -> bool

val remove_collection :
  t -> name:string -> schema:'a Tdb_objstore.Obj_class.t -> indexers:'a Indexer.generic list -> unit
(** Remove the collection {e and} every object in it (paper Figure 5). *)

val insert : t -> 'a collection -> 'a -> oid
(** Insert an object; all indexes update immediately.
    @raise Index.Duplicate_key on a unique violation (collection unchanged). *)

val size : t -> 'a collection -> int

val create_index : t -> 'a collection -> ('a, 'k) Indexer.t -> unit
(** Add an index, populated from the existing objects.
    @raise Index.Duplicate_key if a unique index would cover duplicates
    (the half-built index is dropped). *)

val remove_index : t -> 'a collection -> name:string -> unit
(** @raise Last_index when it is the only index. *)

(** {1 Queries and iterators} (paper Figure 6) *)

type 'a iterator

val scan : t -> 'a collection -> ('a, 'k) Indexer.t -> 'a iterator
(** Everything, in the index's natural order (B-tree: key order). *)

val exact : t -> 'a collection -> ('a, 'k) Indexer.t -> 'k -> 'a iterator

val range : t -> 'a collection -> ('a, 'k) Indexer.t -> min:'k option -> max:'k option -> 'a iterator
(** Inclusive range; [None] leaves a side open.
    @raise Index.Unsupported_query on a hash index. *)

val at_end : 'a iterator -> bool
val advance : 'a iterator -> unit
val current_oid : 'a iterator -> oid

val read : 'a iterator -> 'a
(** Read-only view of the current object. *)

val write : 'a iterator -> 'a
(** Writable view; takes the pre-update key snapshot on first access and
    requires this to be the only open iterator on the collection. Mutate
    the returned value in place. *)

val delete : 'a iterator -> unit
(** Remove the current object from collection and store (applied at
    {!close} like other updates). *)

val close : 'a iterator -> unit
(** Apply all deferred index maintenance.
    @raise Unique_violation when updated keys collide in a unique index
    (violators are removed and listed). *)
