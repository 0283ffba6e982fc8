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

    {1 Quick start}

    {[
      let _attacker, device = Tdb.Device.in_memory ~seed:"dev" () in
      let db = Tdb.create device in
      Tdb.with_ctxn db (fun ct ->
          let meters =
            Tdb.Cstore.create_collection ct ~name:"meters" ~schema:meter_cls
              (Tdb.Indexer.make ~name:"id" ~key:Tdb.Gkey.int ~extract:(fun m -> m.id)
                 ~unique:true ~impl:Tdb.Indexer.Hash ())
          in
          ignore (Tdb.Cstore.insert ct meters { id = 1; views = 0 }))
    ]} *)

(* --- re-exports --- *)

module Crypto = struct
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
module Replica = Tdb_replica.Replica

exception Tamper_detected = Tdb_chunk.Types.Tamper_detected

(* --- devices --- *)

(** A device bundles the platform facilities TDB needs (paper Figure 1):
    the untrusted store holding the database, the secret store, the one-way
    counter, and an archival store for backups. *)
module Device = struct
  type t = {
    store : Untrusted_store.t;
    secret : Secret_store.t;
    counter : One_way_counter.t;
    archive : Archival_store.t;
  }

  (** Ephemeral in-memory device (tests, examples, simulations). Returns
      the attacker's handle to its untrusted store alongside. *)
  let in_memory ?(seed = "tdb-device") () : Untrusted_store.Mem.handle * t =
    let mem, store = Untrusted_store.open_mem () in
    let _, counter = One_way_counter.open_mem () in
    let _, archive = Archival_store.open_mem () in
    (mem, { store; secret = Secret_store.of_seed seed; counter; archive })

  (** Durable device rooted at a directory: [db] file, [counter] file,
      [secret] key file, [backups/] archive. *)
  let at_dir (dir : string) : t =
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
    {
      store = Untrusted_store.open_file (Filename.concat dir "db");
      secret = Secret_store.of_file (Filename.concat dir "secret");
      counter = One_way_counter.open_file (Filename.concat dir "counter");
      archive = Archival_store.open_dir (Filename.concat dir "backups");
    }
end

(* --- the embedded database --- *)

type t = {
  device : Device.t;
  chunks : Chunk_store.t;
  objects : Object_store.t;
  backups : Backup_store.t;
}

let assemble ?(object_config = Object_store.default_config) device chunks =
  {
    device;
    chunks;
    objects = Object_store.of_shard_store ~config:object_config chunks;
    backups = Backup_store.create ~secret:device.Device.secret ~archive:device.Device.archive chunks;
  }

(** Create a fresh database on the device (overwrites any existing one). *)
let create ?(config = Chunk_config.default) ?object_config (device : Device.t) : t =
  assemble ?object_config device
    (Chunk_store.create ~config ~secret:device.Device.secret ~counter:device.Device.counter device.Device.store)

(** Open an existing database, running recovery and tamper checks.
    @raise Chunk_store.Recovery_failed if there is no valid anchor;
    @raise Tamper_detected on hash/MAC/counter violations. *)
let open_existing ?(config = Chunk_config.default) ?object_config (device : Device.t) : t =
  assemble ?object_config device
    (Chunk_store.open_existing ~config ~secret:device.Device.secret ~counter:device.Device.counter
       device.Device.store)

let close (db : t) : unit = Object_store.close db.objects
let checkpoint (db : t) : unit = Object_store.checkpoint db.objects

(** Idle-time maintenance: log cleaning (paper Section 3.2.1), under the
    state mutex like every other store access. *)
let idle_maintenance (db : t) : unit = Object_store.with_store db.objects (fun cs -> Chunk_store.clean cs)

(* --- transactions --- *)

let with_txn ?durable (db : t) f = Object_store.with_txn ?durable db.objects f
let with_ctxn ?durable (db : t) f = Cstore.with_ctxn ?durable db.objects f
let begin_txn (db : t) = Object_store.begin_ db.objects
let begin_ctxn (db : t) = Cstore.begin_ db.objects

(* --- backups --- *)

(* Under the state mutex: a backup snapshots (checkpoints) and commits
   its chain state durably. *)
let backup_full (db : t) : int = Object_store.with_store db.objects (fun _ -> Backup_store.backup_full db.backups)

let backup_incremental (db : t) : int =
  Object_store.with_store db.objects (fun _ -> Backup_store.backup_incremental db.backups)

(** Restore the newest (or [upto]) backup found in [from]'s archive into a
    fresh database on [device] (which must share the secret store that made
    the backups), reading only the chain it applies. *)
let restore ?upto ~(from : Device.t) (device : Device.t) : t =
  let chunks =
    Chunk_store.create ~secret:device.Device.secret ~counter:device.Device.counter device.Device.store
  in
  ignore
    (Backup_store.restore ~secret:from.Device.secret ~archive:from.Device.archive ?upto ~into:chunks ());
  assemble device chunks
