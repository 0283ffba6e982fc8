(** Persistent index structures (paper Section 5.2.4): B-tree, dynamic
    hash table (Larson's linear hashing) and list. Index meta-objects —
    anchors, B-tree nodes, hash buckets and directory segments, list
    nodes — are ordinary objects in the object store, so they are cached,
    two-phase locked and committed transactionally like everything else.
    Indexes map canonical key bytes (see {!Gkey}) to object ids; every
    index is reached through an {e anchor} object whose oid never changes,
    so collection metadata survives root splits and directory growth. *)

open Tdb_objstore

type oid = Object_store.oid

exception Duplicate_key of { index : string; key : string }
exception Unsupported_query of string

(** Key-type-erased operations bundle built from a typed indexer. *)
type ops = {
  index_name : string;
  cmp : string -> string -> int;
  unique : bool;
  impl : Indexer.impl;
}

val ops_of : index_name:string -> unique:bool -> impl:Indexer.impl -> 'k Gkey.t -> ops

val create_anchor : Object_store.txn -> Indexer.impl -> oid
(** Fresh empty index; returns the anchor's oid. *)

val insert : Object_store.txn -> ops -> oid -> key:string -> oid:oid -> unit
(** @raise Duplicate_key when [ops.unique] and the key is present. *)

val delete : Object_store.txn -> ops -> oid -> key:string -> oid:oid -> unit
(** Remove one (key, oid) pair; no-op if absent. *)

val exact : Object_store.txn -> ops -> oid -> key:string -> oid list

val scan : Object_store.txn -> ops -> oid -> oid list
(** B-tree: key order; hash: bucket order; list: insertion order. *)

val range : Object_store.txn -> ops -> oid -> min:string option -> max:string option -> oid list
(** Inclusive range. @raise Unsupported_query on a hash index. *)

val count : Object_store.txn -> Indexer.impl -> oid -> int
(** Entries in the index. A list index keeps its count in its head node;
    a head written before it did falls back to the anchor's count. *)

val drop : Object_store.txn -> ops -> oid -> unit
(** Remove every meta-object of the index, anchor included. *)
