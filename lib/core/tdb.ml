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

  (* --- durable devices: a directory holding [db], [counter], [secret]
     and the [backups/] archive --- *)

  type refusal =
    | No_directory of string
    | Missing_file of string
    | Bad_secret of string
    | Unreadable_counter of string
    | Tampered of string
    | Unrecoverable of string
    | Invalid_backup of string
    | Io_error of string
    | Archive_ahead of string

  exception Refused of refusal

  let describe = function
    | No_directory d -> "NO DIRECTORY: " ^ d
    | Missing_file p -> "MISSING: " ^ p
    | Bad_secret m -> "CORRUPT SECRET: " ^ m
    | Unreadable_counter m -> "UNREADABLE COUNTER: " ^ m
    | Tampered m -> "TAMPER DETECTED: " ^ m
    | Unrecoverable m -> "UNRECOVERABLE: " ^ m
    | Invalid_backup m -> "INVALID BACKUP: " ^ m
    | Io_error m -> "I/O ERROR: " ^ m
    | Archive_ahead m -> "ARCHIVE AHEAD: " ^ m

  (* Every typed verdict a layer below raises on a damaged directory. *)
  let attempt f =
    match f () with
    | v -> Ok v
    | exception Refused r -> Error r
    | exception Secret_store.Bad_key_file m -> Error (Bad_secret m)
    | exception One_way_counter.Unreadable m -> Error (Unreadable_counter m)
    | exception Tamper_detected m -> Error (Tampered m)
    | exception Chunk_store.Recovery_failed m -> Error (Unrecoverable m)
    | exception Backup_store.Invalid_backup m -> Error (Invalid_backup m)

  let or_exit f =
    match attempt f with
    | Ok v -> v
    | Error r ->
        prerr_endline (describe r);
        exit 2

  let refuse r = raise (Refused r)
  let is_dir p = Sys.file_exists p && Sys.is_directory p

  let key_file path = if Sys.file_exists path then Secret_store.of_file path else refuse (Missing_file path)

  let open_dir dir =
    if not (is_dir dir) then refuse (No_directory dir);
    let path = Filename.concat dir in
    List.iter (fun f -> if not (Sys.file_exists (path f)) then refuse (Missing_file (path f))) [ "db"; "secret"; "counter" ];
    let secret = Secret_store.of_file (path "secret") in
    let counter = One_way_counter.open_file ~existing:true (path "counter") in
    { store = Untrusted_store.open_file (path "db"); secret; counter; archive = Archival_store.open_dir (path "backups") }

  (* What a restore reads of a directory: its secret and its archive. *)
  let open_archive dir =
    if not (is_dir dir) then refuse (No_directory dir);
    (key_file (Filename.concat dir "secret"), Archival_store.open_dir (Filename.concat dir "backups"))

  let rec remove_tree p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> remove_tree (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

  (* An absent target is renamed into place whole. An existing one has
     [counter], [db] and [secret] replaced, each by one rename; the new
     streams join its [backups/], whose other streams stay. *)
  let install ~tmp dir =
    if not (Sys.file_exists dir) then Sys.rename tmp dir
    else begin
      let src = Filename.concat tmp and dst = Filename.concat dir in
      if is_dir (dst "backups") then begin
        Array.iter
          (fun s -> Sys.rename (Filename.concat (src "backups") s) (Filename.concat (dst "backups") s))
          (Sys.readdir (src "backups"));
        Sys.rmdir (src "backups")
      end
      else begin
        if Sys.file_exists (dst "backups") then Sys.remove (dst "backups");
        Sys.rename (src "backups") (dst "backups")
      end;
      List.iter (fun f -> Sys.rename (src f) (dst f)) [ "counter"; "db"; "secret" ];
      Sys.rmdir tmp
    end

  let io f =
    try f () with
    | Sys_error m -> refuse (Io_error m)
    | Unix.Unix_error (e, fn, arg) -> refuse (Io_error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e)))

  (* A database restored to [restored] makes its next backup with id
     [restored + 1], beside any stream already above it in the target's
     archive: a later restore would pick both and refuse the fork. With
     no chain to restore (0), the restore itself refuses. *)
  let refuse_fork dir ~restored =
    if restored > 0 && is_dir dir then
      match Backup_store.index (Archival_store.open_dir (Filename.concat dir "backups")) ~after:restored with
      | [] -> ()
      | (_, name) :: _ ->
          refuse
            (Archive_ahead
               (Printf.sprintf "%s/backups holds %s, past backup %d being restored; restore into a new directory"
                  dir name restored))

  let create_dir ?key ?restored dir build =
    let exists = Sys.file_exists dir in
    if exists && not (Sys.is_directory dir) then refuse (No_directory dir);
    let parent = Filename.dirname dir in
    if not (is_dir parent) then refuse (No_directory parent);
    Option.iter (fun restored -> refuse_fork dir ~restored) restored;
    let key =
      match key with
      | Some _ -> key
      | None ->
          let own = Filename.concat dir "secret" in
          if Sys.file_exists own then Some (key_file own) else None
    in
    (* staged inside an existing target, so only it need be writable *)
    let tmp =
      io (fun () ->
          if exists then Filename.temp_dir ~temp_dir:dir ".new" ".tmp"
          else Filename.temp_dir ~temp_dir:parent ("." ^ Filename.basename dir) ".tmp")
    in
    let path = Filename.concat tmp in
    match
      io (fun () ->
          Unix.mkdir (path "backups") 0o700;
          let v =
            build
              {
                secret = Secret_store.create_file ?key (path "secret");
                counter = One_way_counter.open_file (path "counter");
                store = Untrusted_store.open_file (path "db");
                archive = Archival_store.open_dir (path "backups");
              }
          in
          install ~tmp dir;
          v)
    with
    | v -> v
    | exception e ->
        (try if Sys.file_exists tmp then remove_tree tmp with Sys_error _ -> ());
        raise e
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

(** A fresh database in a new directory ({!Device.create_dir}). *)
let init_dir ?key (dir : string) : unit = Device.create_dir ?key dir (fun d -> close (create d))

(** Idle-time maintenance: log cleaning (paper Section 3.2.1), under the
    state mutex like every other store access. *)
let idle_maintenance (db : t) : unit = Object_store.with_store db.objects (fun cs -> Chunk_store.clean cs)

(* --- transactions --- *)

let with_txn ?durable (db : t) f = Object_store.with_txn ?durable db.objects f
let with_ctxn ?durable (db : t) f = Cstore.with_ctxn ?durable db.objects f
let begin_ctxn (db : t) = Cstore.begin_ db.objects

(* --- backups --- *)

(* Under the state mutex: a backup snapshots (checkpoints) and commits
   its chain state durably. *)
let backup_full (db : t) : int = Object_store.with_store db.objects (fun _ -> Backup_store.backup_full db.backups)

let backup_incremental (db : t) : int =
  Object_store.with_store db.objects (fun _ -> Backup_store.backup_incremental db.backups)

(** Restore the newest (or [upto]) backup found in the archive [from] into
    a fresh database on [device], whose secret store made the backups,
    reading only the chain it applies. *)
let restore ?upto ~(from : Archival_store.t) (device : Device.t) : t =
  let chunks =
    Chunk_store.create ~secret:device.Device.secret ~counter:device.Device.counter device.Device.store
  in
  ignore (Backup_store.restore ~secret:device.Device.secret ~archive:from ?upto ~into:chunks ());
  assemble device chunks
