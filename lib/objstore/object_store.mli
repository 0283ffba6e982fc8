(** The object store (paper Section 4): typed, named, transactional storage
    of application objects over the chunk store.

    An object's persistent id {e is} its chunk id (single-object chunks,
    Section 4.2.1). Recently used objects live decrypted, validated and
    unpickled in an LRU cache; dirty objects are pinned until commit
    (no-steal). Transactions use strict two-phase locking with
    shared/exclusive object locks, deadlocks broken by timeout; refs are
    invalidated when their transaction ends, and typed opens are checked
    against the stored class (type witnesses in place of the paper's C++
    RTTI). Persistence is by explicit {!insert}/{!remove}, not
    reachability, and object ids are never swizzled into pointers. *)

type oid = int
(** Persistent object id (= the chunk id the object is stored in). *)

exception Unknown_object of oid
exception Stale_ref
(** A ref was dereferenced after its transaction ended (paper Section 4.1:
    a checked runtime error). *)

exception Removed_in_transaction of oid

(** {1 Store} *)

type config = {
  lock_timeout : float;  (** seconds before a blocked open raises (deadlock breaking) *)
  locking : bool;  (** paper: "the application may even switch off locking" *)
  cache_budget : int;  (** object cache budget, bytes *)
}

val default_config : config

type t

val of_shard_store : ?config:config -> Tdb_chunk.Shard_store.t -> t
(** An object store over a shard router — the general constructor. Object
    ids are the router's global chunk ids; the named-roots catalog lives
    on shard 0. *)

val of_chunk_store : ?config:config -> Tdb_chunk.Chunk_store.t -> t
(** Convenience: wrap a single chunk store in a 1-shard router (pure
    passthrough, byte-compatible with the unsharded format). *)

val chunk_store : t -> Tdb_chunk.Shard_store.t
val close : t -> unit
val checkpoint : t -> unit

val cache_stats : t -> int * int * int
(** Object-cache (hits, misses, evictions). *)

val chunk_cache_stats : t -> int * int * int
(** Same counters for the verified-chunk cache one level down — the
    second tier of the two-level cache (see DESIGN.md, "Caching"). *)

val set_chunk_cache_budget : t -> int -> unit
(** Resize the underlying chunk store's verified-chunk cache at runtime
    (0 disables it); evicts immediately if over the new budget. *)

val held_count : t -> int
(** Objects currently holding at least one transactional lock — 0 when no
    transaction is active (observable lock hygiene, e.g. after a network
    session dies). *)

val with_store : t -> (Tdb_chunk.Shard_store.t -> 'a) -> 'a
(** Run [f] on the underlying chunk store under the store's state mutex,
    serialized against every transaction — the backup/publish path (snapshot
    creation, archive emission, chain-state commits). [f] must not call
    back into this object store. *)

val ingest : t -> (Tdb_chunk.Shard_store.t -> 'a) -> 'a option
(** Replication ingest hook: run [f] (which may rewrite the store
    arbitrarily, e.g. an applied backup stream) only when no transaction
    holds a lock, then drop the object cache and reload the named-roots
    catalog, both of which [f] may have invalidated. [None] = not
    quiesced; retry later. *)

val get_root : t -> string -> oid option
(** Committed value of a named root. *)

(** {1 Transactions} (paper Figure 3) *)

type txn

type ('a, 'mode) ref_
(** A smart pointer, valid only while its transaction is active. The
    phantom ['mode] separates read-only from writable references. *)

type readonly
type writable

val begin_ : t -> txn

val deref : ('a, 'mode) ref_ -> 'a
(** @raise Stale_ref if the owning transaction has ended. *)

val insert : txn -> 'a Obj_class.t -> 'a -> oid
(** Insert a new object (exclusively locked, pinned dirty until commit). *)

val set_alloc_shard : txn -> int option -> unit
(** Pin this transaction's inserts to one shard of the underlying
    {!Tdb_chunk.Shard_store} ([None] restores the router's round-robin
    default). Collections use this so a row lands with its collection's
    other rows; a no-op over a 1-shard router. *)

val alloc_shard : txn -> int option
(** The transaction's current allocation affinity (see
    {!set_alloc_shard}). *)

val open_readonly : txn -> 'a Obj_class.t -> oid -> ('a, readonly) ref_
(** Shared lock; class-checked.
    @raise Obj_class.Type_mismatch on a wrong expected class.
    @raise Lock_manager.Lock_timeout after the configured timeout.
    @raise Unknown_object if the id has no object. *)

val open_writable : txn -> 'a Obj_class.t -> oid -> ('a, writable) ref_
(** Exclusive lock; the object joins the write set and is pickled and
    written at commit. Mutate the dereferenced value in place. *)

val update : txn -> 'a Obj_class.t -> oid -> 'a -> unit
(** Replace the stored value wholesale (exclusive lock, joins the write
    set). The network server's write primitive: the new value arrives
    complete, rather than being mutated through a ref.
    @raise Obj_class.Type_mismatch when the stored class differs. *)

val remove : txn -> oid -> unit
(** Remove the object; its id is released at commit. *)

val set_root : txn -> string -> oid option -> unit
(** Register ([Some]) or clear ([None]) a named root within the txn. *)

val root : txn -> string -> oid option
(** Root as seen by this transaction (pending updates included). *)

val commit : ?durable:bool -> txn -> unit
(** Pickle the write set and commit everything as one atomic chunk batch;
    durable by default. Releases locks and invalidates the txn's refs. *)

val abort : txn -> unit
(** Discard the write set; objects opened for writing are evicted from the
    cache (paper Section 4.2.3) and inserted ids released. *)

val with_txn : ?durable:bool -> t -> (txn -> 'a) -> 'a
(** Run [f] in a transaction; commit on return, abort on exception. *)

val durable_barrier : t -> unit
(** Promote every committed nondurable transaction to durable with one
    log force and one one-way-counter bump — the group-commit hook (see
    {!Tdb_chunk.Shard_store.durable_barrier}). Serialized under the
    store's state mutex like every other chunk-store access. *)
