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
    - {!Server} / {!Client} / {!Proto}: the networked service layer —
      sessions over Unix-domain/TCP sockets; concurrent durable commits
      coalesce in {!Object_store} (group commit). *)

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

exception Tamper_detected of string
(** Alias of {!Chunk_types.Tamper_detected}: validation failed in a way a
    crash cannot explain (bad Merkle hash, bad MAC, counter mismatch). *)

(** {1 Devices} *)

(** A device bundles the platform facilities TDB needs (paper Figure 1):
    the untrusted store holding the database, the secret store, the one-way
    counter, and an archival store for backups. *)
module Device : sig
  type t = {
    store : Untrusted_store.t;
    secret : Secret_store.t;
    counter : One_way_counter.t;
    archive : Archival_store.t;
  }

  val in_memory : ?seed:string -> unit -> Untrusted_store.Mem.handle * t
  (** Ephemeral in-memory device (tests, examples, simulations). Returns
      the attacker's handle to its untrusted store alongside. *)

  (** {2 Durable devices}

      A database directory holds the untrusted store ([db]), the emulated
      one-way counter ([counter]), the secret-store image ([secret]) and
      the backup archive ([backups/], made by the first backup). Opening
      one writes nothing; {!create_dir} is the one place a directory is
      written from scratch. *)

  (** Why a directory is not a usable database, one constructor per
      cause. Everything in a directory is attacker-controlled input, so
      each cause is a typed answer, never an internal error. *)
  type refusal =
    | No_directory of string  (** the directory — or, to create one, its parent — is not there *)
    | Missing_file of string  (** the path of a missing [db], [secret] or [counter] *)
    | Bad_secret of string  (** {!Secret_store.Bad_key_file} *)
    | Unreadable_counter of string  (** {!One_way_counter.Unreadable} *)
    | Tampered of string  (** {!Tamper_detected} *)
    | Unrecoverable of string  (** {!Chunk_store.Recovery_failed} *)
    | Invalid_backup of string  (** {!Backup_store.Invalid_backup} *)
    | Io_error of string  (** {!create_dir} could not write its temporary directory or move it into place *)
    | Archive_ahead of string
        (** a restore to backup N into a directory whose [backups/] already holds a stream above N *)

  exception Refused of refusal

  val describe : refusal -> string
  (** One line: the verdict in capitals, then the detail. *)

  val attempt : (unit -> 'a) -> ('a, refusal) result
  (** Run [f]; {!Refused}, and each exception a {!refusal} constructor
      names, become [Error]. *)

  val or_exit : (unit -> 'a) -> 'a
  (** {!attempt} for a command: a refusal prints its {!describe} line on
      stderr and exits 2. *)

  val open_dir : string -> t
  (** The device of an existing database directory. Creates, writes and
      repairs nothing: a counter with no valid slot is refused, not
      initialized, and a missing [backups/] lists empty. Raises what
      {!attempt} turns into [No_directory], [Missing_file] (checked in
      the order [db], [secret], [counter]), [Bad_secret] or
      [Unreadable_counter]. *)

  val key_file : string -> Secret_store.t
  (** Load a key file; raises what {!attempt} turns into [Missing_file]
      or [Bad_secret]. *)

  val open_archive : string -> Secret_store.t * Archival_store.t
  (** What a restore reads of a directory: its [secret] and its
      [backups/] archive; [db] and [counter] need not be there. Writes
      nothing. Raises what {!attempt} turns into [No_directory],
      [Missing_file] or [Bad_secret]. *)

  val create_dir : ?key:Secret_store.t -> ?restored:int -> string -> (t -> 'a) -> 'a
  (** [create_dir dir build] runs [build] on a new device in a temporary
      directory — under [key], or by default the secret [dir] already
      holds, or a fresh one — and only when [build] returns moves it into
      place. An absent [dir] is made beside it, in [dir]'s parent, and
      renamed into place whole. An existing [dir] is staged inside
      itself, so only [dir] need be writable; then its [counter], [db]
      and [secret] are each replaced by one rename, and the new streams
      join its [backups/] while its other streams (and other entries)
      stay, so restoring a directory into itself keeps its archive. That
      replacement is not atomic as a whole: a crash or an I/O error
      between the renames can leave some entries replaced. On an
      exception the temporary directory is removed; [dir] is untouched
      unless the failure came while moving entries into it. [build] must
      close any database it opens. Refuses ({!attempt}) with
      [No_directory] if [dir]'s parent is not a directory or [dir] is not
      one, with [Bad_secret] if the secret [dir] holds is corrupt, with
      [Io_error] on a file-system error, and with whatever [build]
      raises.

      [restored] is given by a restore to backup [restored]: before
      anything is staged, it refuses with [Archive_ahead] if [dir]'s
      [backups/] holds a stream with a higher id. The restored database's
      next backup would take id [restored + 1] beside that stream, and
      every later restore would refuse the forked chain. *)
end

(** {1 The embedded database} *)

type t = {
  device : Device.t;
  chunks : Chunk_store.t;
  objects : Object_store.t;
  backups : Backup_store.t;
}

val create : ?config:Chunk_config.t -> ?object_config:Object_store.config -> Device.t -> t
(** Create a fresh database on the device (overwrites any existing one). *)

val open_existing : ?config:Chunk_config.t -> ?object_config:Object_store.config -> Device.t -> t
(** Open an existing database, running recovery and tamper checks.
    @raise Chunk_store.Recovery_failed if there is no valid anchor, or the
    store was written as one shard of a sharded database;
    @raise Tamper_detected on hash/MAC/counter violations. *)

val close : t -> unit

val init_dir : ?key:Secret_store.t -> string -> unit
(** A fresh database in a directory: {!create}, then {!close}, inside
    {!Device.create_dir}. *)

val checkpoint : t -> unit

val idle_maintenance : t -> unit
(** Idle-time maintenance: log cleaning (paper Section 3.2.1). Runs under
    the object store's state mutex ({!Object_store.with_store}). *)

(** {1 Transactions} *)

val with_txn : ?durable:bool -> t -> (Object_store.txn -> 'a) -> 'a
val with_ctxn : ?durable:bool -> t -> (Cstore.t -> 'a) -> 'a
val begin_ctxn : t -> Cstore.t

(** {1 Backups} *)

val backup_full : t -> int
val backup_incremental : t -> int

val restore : ?upto:int -> from:Archival_store.t -> Device.t -> t
(** Restore the newest (or [upto]) backup found in the archive [from] into
    a fresh database on the device, whose secret store must be the one
    that made the backups. Reads only the chain it applies: the newest
    full at or below [upto] and the incrementals after it
    ({!Backup_store.restore}).
    @raise Backup_store.Invalid_backup when that chain has a gap or a
    damaged frame — a damaged newest frame is refused, not rolled back
    past; [upto] picks an older point. *)
