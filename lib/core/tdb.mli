(** TDB — a trusted database system for Digital Rights Management.

    This is the top-level facade: it re-exports the four layers of the
    paper's architecture (chunk store, backup store, object store,
    collection store) and the platform abstractions, and provides the
    "embedded database" convenience API a DRM application links against:
    open a device, get typed transactional collections.

    {1 Layers}

    - {!Chunk_store} (with {!Chunk_config}): trusted, log-structured,
      encrypted + tamper/replay-evident storage of untyped chunks.
    - {!Backup_store}: validated full/incremental backups.
    - {!Object_store} / {!Obj_class}: typed, named C-style objects with
      transactions, strict 2PL and an object cache.
    - {!Cstore} / {!Indexer} / {!Gkey}: collections with automatically
      maintained functional indexes and insensitive iterators.
    - {!Server} / {!Client} / {!Proto} / {!Group_commit}: the networked
      service layer — sessions over Unix-domain/TCP sockets with group
      commit. *)

(** {1 Re-exported layers} *)

module Crypto : sig
  module Sha1 = Tdb_crypto.Sha1
  module Sha256 = Tdb_crypto.Sha256
  module Hmac = Tdb_crypto.Hmac
  module Aes = Tdb_crypto.Aes
  module Xtea = Tdb_crypto.Xtea
  module Triple = Tdb_crypto.Triple
  module Cbc = Tdb_crypto.Cbc
  module Drbg = Tdb_crypto.Drbg
  module Hex = Tdb_crypto.Hex
end

module Pickle = Tdb_pickle.Pickle
module Untrusted_store = Tdb_platform.Untrusted_store
module Secret_store = Tdb_platform.Secret_store
module One_way_counter = Tdb_platform.One_way_counter
module Archival_store = Tdb_platform.Archival_store
module Chunk_config = Tdb_chunk.Config
module Chunk_types = Tdb_chunk.Types
module Chunk_store = Tdb_chunk.Chunk_store
module Shard_store = Tdb_chunk.Shard_store
module Metrics = Tdb_chunk.Metrics
module Backup_store = Tdb_backup.Backup_store
module Obj_class = Tdb_objstore.Obj_class
module Object_store = Tdb_objstore.Object_store
module Lock_manager = Tdb_objstore.Lock_manager
module Gkey = Tdb_collection.Gkey
module Indexer = Tdb_collection.Indexer
module Cstore = Tdb_collection.Cstore
module Proto = Tdb_server.Proto
module Server = Tdb_server.Server
module Client = Tdb_server.Client
module Group_commit = Tdb_server.Group_commit
module Replica = Tdb_replica.Replica

exception Tamper_detected of string
(** Alias of {!Chunk_types.Tamper_detected}: validation failed in a way a
    crash cannot explain (bad Merkle hash, bad MAC, counter mismatch). *)

(** {1 Devices} *)

(** A device bundles the platform facilities TDB needs (paper Figure 1):
    the untrusted store holding the database, the secret store, the one-way
    counter, and an archival store for backups. *)
module Device : sig
  type t = {
    store : Untrusted_store.t;  (** shard 0 *)
    secret : Secret_store.t;
    counter : One_way_counter.t;  (** shard 0 *)
    archive : Archival_store.t;
    extra : (Untrusted_store.t * One_way_counter.t) array;
        (** shards 1..n-1 of a sharded database; [[||]] otherwise *)
  }

  val width : t -> int
  (** Shard count ([1 + Array.length extra]). *)

  val stores : t -> Untrusted_store.t array
  val counters : t -> One_way_counter.t array

  val in_memory : ?seed:string -> ?shards:int -> unit -> Untrusted_store.Mem.handle * t
  (** Ephemeral in-memory device (tests, examples, simulations). Returns
      the attacker's handle to shard 0's untrusted store alongside. *)

  val at_dir : ?shards:int -> string -> t
  (** Durable device rooted at a directory: [db] file, [counter] file,
      [secret] key file, [backups/] archive; shard [i ≥ 1] adds [db.i] and
      [counter.i]. With [shards] omitted the width is detected from the
      [db.i] files present (so reopening never needs the flag), falling
      back to [TDB_SHARDS] / 1 for a fresh directory. *)
end

(** {1 The embedded database} *)

type t = {
  device : Device.t;
  chunks : Shard_store.t;
  objects : Object_store.t;
  backups : Backup_store.t;
}

val create : ?config:Chunk_config.t -> ?object_config:Object_store.config -> Device.t -> t
(** Create a fresh database on the device (overwrites any existing one).
    [config.shards] must agree with the device's width (a default config
    simply follows the device). *)

val open_existing : ?config:Chunk_config.t -> ?object_config:Object_store.config -> Device.t -> t
(** Open an existing database, running recovery and tamper checks. The
    shard width comes from the device and is cross-checked against the
    width the store itself persists.
    @raise Chunk_store.Recovery_failed if there is no valid anchor or the
    shard width disagrees with the store;
    @raise Tamper_detected on hash/MAC/counter violations. *)

val close : t -> unit
val checkpoint : t -> unit

val idle_maintenance : t -> unit
(** Idle-time maintenance: log cleaning (paper Section 3.2.1). *)

(** {1 Transactions} *)

val with_txn : ?durable:bool -> t -> (Object_store.txn -> 'a) -> 'a
val with_ctxn : ?durable:bool -> t -> (Cstore.t -> 'a) -> 'a
val begin_txn : t -> Object_store.txn
val begin_ctxn : t -> Cstore.t

(** {1 Backups} *)

val backup_full : t -> int
val backup_incremental : t -> int

val restore : ?upto:int -> from:Device.t -> Device.t -> t
(** Restore the newest (or [upto]) backup found in [from]'s archive into a
    fresh database on the second device (which must share the secret store
    that made the backups). *)
