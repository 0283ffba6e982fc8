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
  cache_budget : int;
      (** object cache budget in pickled bytes (an unpickled index bucket
          takes about 7× its charge in heap); {!of_shard_store} adds the
          chunk store's cache budget to it *)
}

val default_config : config

type t

val of_shard_store : ?config:config -> Tdb_chunk.Chunk_store.t -> t
(** An object store over a chunk store: object ids are its chunk ids,
    and the named-roots catalog lives in reserved chunk 1. The object
    cache is the only cache over the store: it takes the chunk store's
    cache budget on top of [config.cache_budget], counted in pickled
    bytes like it, and sets that tier to 0.
    The name predates the removal of the shard router and is kept for
    the perfbench harness. *)

val chunk_store : t -> Tdb_chunk.Chunk_store.t
val close : t -> unit
val checkpoint : t -> unit

val cache_stats : t -> int * int * int
(** Object-cache (hits, misses, evictions). *)

val metrics : t -> Tdb_chunk.Metrics.t
(** The object store's own metrics: the object cache's
    [object_cache.{hits,misses,evictions,resident,bytes,budget_bytes}]
    (a re-open of an object the transaction already holds is answered by
    the transaction and counts no hit), the locks' [locks.held] ({!held_count}),
    [locks.acquired] (grants that changed a lock: a first shared or
    exclusive lock, or an upgrade; a re-open counts none),
    [locks.waits] (grants that had to wait, once however many wakes)
    and [locks.timeouts] ({!Lock_manager.Lock_timeout}s raised), and
    group commit's [group_commit.barriers] (barriers that landed) and
    [group_commit.coalesced] (the durable commits with writes that they
    covered). The store's metrics are {!Tdb_chunk.Chunk_store.metrics}. *)

val held_count : t -> int
(** Objects currently locked by at least one transaction (nonzero lock
    words) — 0 when no transaction is active (observable lock hygiene,
    e.g. after a network session dies). *)

val lock_audit : t -> int * int
(** [(locked, unpinned)]: the cached objects whose lock word is nonzero,
    and how many of those are not pinned. Between operations [locked]
    equals {!held_count} and [unpinned] is 0 (a lock implies a pin); for
    tests. *)

val with_store : t -> (Tdb_chunk.Chunk_store.t -> 'a) -> 'a
(** Run [f] on the underlying chunk store under the store's state mutex,
    serialized against every transaction — the backup path (snapshot
    creation, archive emission and listing, chain-state commits). [f] must not call
    back into this object store. *)

val ingest : t -> (Tdb_chunk.Chunk_store.t -> 'a * oid list option) -> 'a option
(** Replication ingest hook: run [f] (which may rewrite the store, e.g.
    an applied backup stream) only when no transaction holds a lock. [f]
    returns its result and the ids it changed or removed, or [None] if it
    may have changed any; those objects leave the object cache (every
    object on [None]), the rest stay cached, and the named-roots catalog
    is reloaded. [None] = not quiesced; retry later. *)

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

val open_readonly : txn -> 'a Obj_class.t -> oid -> ('a, readonly) ref_
(** Shared lock; class-checked.
    @raise Obj_class.Type_mismatch on a wrong expected class.
    @raise Lock_manager.Lock_timeout after the configured timeout.
    @raise Unknown_object if the id has no object. *)

val open_writable : txn -> 'a Obj_class.t -> oid -> ('a, writable) ref_
(** Exclusive lock; the object joins the write set and is pickled and
    written at commit. Mutate the dereferenced value in place. *)

val remove : txn -> oid -> unit
(** Remove the object (locked like a writable open, so it must exist);
    its id is released at commit, and a re-open raises
    {!Removed_in_transaction}. An {!abort} drops it from the cache, as it
    may have been written first, and frees its id if this txn inserted it. *)

val set_root : txn -> string -> oid option -> unit
(** Register ([Some]) or clear ([None]) a named root within the txn. *)

val root : txn -> string -> oid option
(** Root as seen by this transaction (pending updates included). *)

val commit : ?durable:bool -> txn -> unit
(** Pickle the write set and commit everything as one atomic chunk batch;
    durable by default. Releases locks and invalidates the txn's refs.

    Durable commits coalesce (group commit). With no barrier syncing, the
    commit leads one that carries its batch under the durable record, and
    with it every nondurable commit before it; the log force and counter
    bump run outside the state mutex. While a barrier syncs, the commit lands nondurably
    and waits until a barrier covers it, leading the next one itself if
    none has begun. Either way the locks are released once the commit
    has landed. A durable commit with an empty batch waits only for
    durable commits already landed, the syncing leader's included, and
    runs no barrier when none is waiting.

    Once a barrier's sync has raised, the store is poisoned: that
    exception reaches the barrier's leader and waiters, and every later
    durable commit or {!durable_barrier} raises it too (the commits it
    covered stay landed, nondurably). *)

val abort : txn -> unit
(** Undo everything the transaction did, as a {!commit} that raises does
    too: every object it wrote, inserted or removed is dropped from the
    cache (paper Section 4.2.3), every id it inserted, removed or not, is
    released, and its locks and refs go. *)

val with_txn : ?durable:bool -> t -> (txn -> 'a) -> 'a
(** Run [f] in a transaction; commit on return, abort on exception. *)

val durable_barrier : t -> unit
(** Promote every committed nondurable transaction to durable with one
    log force and one one-way-counter bump (see
    {!Tdb_chunk.Chunk_store.durable_barrier}): the same routine as a
    durable commit, with an empty batch. The sync and the bump run outside
    the state mutex; meanwhile nondurable commits and reads proceed,
    durable commits land and wait for the next barrier, while
    {!checkpoint}, {!close}, {!with_store} and {!ingest} wait. Once a barrier's sync has raised,
    every call raises that exception. *)
