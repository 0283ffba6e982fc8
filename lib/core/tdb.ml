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

exception Tamper_detected = Tdb_chunk.Types.Tamper_detected

(* --- devices --- *)

(** A device bundles the platform facilities TDB needs (paper Figure 1):
    the untrusted store holding the database, the secret store, the one-way
    counter, and an archival store for backups. *)
module Device = struct
  type t = {
    store : Untrusted_store.t;  (** shard 0 *)
    secret : Secret_store.t;
    counter : One_way_counter.t;  (** shard 0 *)
    archive : Archival_store.t;
    extra : (Untrusted_store.t * One_way_counter.t) array;
        (** shards 1..n-1 when the database is sharded; [[||]] otherwise *)
  }

  let width (d : t) : int = 1 + Array.length d.extra
  let stores (d : t) : Untrusted_store.t array = Array.append [| d.store |] (Array.map fst d.extra)
  let counters (d : t) : One_way_counter.t array = Array.append [| d.counter |] (Array.map snd d.extra)

  (** Ephemeral in-memory device (tests, examples, simulations). Returns
      the attacker's handle to shard 0's untrusted store alongside. *)
  let in_memory ?(seed = "tdb-device") ?(shards = 1) () : Untrusted_store.Mem.handle * t =
    let mem, store = Untrusted_store.open_mem () in
    let _, counter = One_way_counter.open_mem () in
    let _, archive = Archival_store.open_mem () in
    let extra =
      Array.init (shards - 1) (fun _ ->
          let _, s = Untrusted_store.open_mem () in
          let _, c = One_way_counter.open_mem () in
          (s, c))
    in
    (mem, { store; secret = Secret_store.of_seed seed; counter; archive; extra })

  (* Shard [i > 0] lives in [db.i] / [counter.i] next to shard 0's plain
     [db] / [counter]. *)
  let shard_files dir i =
    if Int.equal i 0 then (Filename.concat dir "db", Filename.concat dir "counter")
    else (Filename.concat dir (Printf.sprintf "db.%d" i), Filename.concat dir (Printf.sprintf "counter.%d" i))

  (** Durable device rooted at a directory: [db] file, [counter] file,
      [secret] key file, [backups/] archive; shard [i] adds [db.i] and
      [counter.i]. When [shards] is omitted the width is detected from the
      [db.i] files present, falling back to [TDB_SHARDS] (default 1) for a
      fresh directory — so reopening a sharded database never needs the
      flag repeated. *)
  let at_dir ?shards (dir : string) : t =
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
    let n =
      match shards with
      | Some n ->
          if n < 1 then invalid_arg "Device.at_dir: shards must be >= 1";
          n
      | None ->
          if Sys.file_exists (Filename.concat dir "db") then begin
            let n = ref 1 in
            while Sys.file_exists (Filename.concat dir (Printf.sprintf "db.%d" !n)) do
              incr n
            done;
            !n
          end
          else Chunk_config.default_shards ()
    in
    let open_shard i =
      let db, ctr = shard_files dir i in
      (Untrusted_store.open_file db, One_way_counter.open_file ctr)
    in
    let store, counter = open_shard 0 in
    {
      store;
      secret = Secret_store.of_file (Filename.concat dir "secret");
      counter;
      archive = Archival_store.open_dir (Filename.concat dir "backups");
      extra = Array.init (n - 1) (fun i -> open_shard (i + 1));
    }
end

(* --- the embedded database --- *)

type t = {
  device : Device.t;
  chunks : Shard_store.t;
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

(** Create a fresh database on the device (overwrites any existing one);
    [config.shards] must match the device's width. *)
let create ?(config = Chunk_config.default) ?object_config (device : Device.t) : t =
  let config =
    if Int.equal config.Chunk_config.shards (Device.width device) then config
    else if Int.equal config.Chunk_config.shards Chunk_config.default.Chunk_config.shards then
      (* caller left shards at the default: follow the device *)
      { config with Chunk_config.shards = Device.width device }
    else invalid_arg "Tdb.create: config.shards disagrees with the device's shard width"
  in
  assemble ?object_config device
    (Shard_store.create ~config ~secret:device.Device.secret ~counters:(Device.counters device)
       (Device.stores device))

(** Open an existing database, running recovery and tamper checks. The
    shard width comes from the device (and is cross-checked against the
    width persisted in the store itself).
    @raise Chunk_store.Recovery_failed if there is no valid anchor or the
    width disagrees with what the store records;
    @raise Tamper_detected on hash/MAC/counter violations. *)
let open_existing ?(config = Chunk_config.default) ?object_config (device : Device.t) : t =
  let config = { config with Chunk_config.shards = Device.width device } in
  assemble ?object_config device
    (Shard_store.open_existing ~config ~secret:device.Device.secret ~counters:(Device.counters device)
       (Device.stores device))

let close (db : t) : unit = Object_store.close db.objects
let checkpoint (db : t) : unit = Object_store.checkpoint db.objects

(** Idle-time maintenance: log cleaning (paper Section 3.2.1). *)
let idle_maintenance (db : t) : unit = Shard_store.clean db.chunks

(* --- transactions --- *)

let with_txn ?durable (db : t) f = Object_store.with_txn ?durable db.objects f
let with_ctxn ?durable (db : t) f = Cstore.with_ctxn ?durable db.objects f
let begin_txn (db : t) = Object_store.begin_ db.objects
let begin_ctxn (db : t) = Cstore.begin_ db.objects

(* --- backups --- *)

let backup_full (db : t) : int = Backup_store.backup_full db.backups
let backup_incremental (db : t) : int = Backup_store.backup_incremental db.backups

(** Restore the newest (or [upto]) backup found in [from]'s archive into a
    fresh database on [device] (which must share the secret store that made
    the backups). *)
let restore ?upto ~(from : Device.t) (device : Device.t) : t =
  let config = { Chunk_config.default with Chunk_config.shards = Device.width device } in
  let chunks =
    Shard_store.create ~config ~secret:device.Device.secret ~counters:(Device.counters device)
      (Device.stores device)
  in
  ignore
    (Backup_store.restore ~secret:from.Device.secret ~archive:from.Device.archive ?upto ~into:chunks ());
  assemble device chunks
