(** The TDB network service: a threaded server exposing an embedded
    object/collection store over Unix-domain or TCP sockets.

    One session per connection, one thread per session, at most one open
    transaction per session. Sessions are aborted on disconnect and on
    idle timeout, so a dead client never strands 2PL locks; a lock
    timeout aborts the session's transaction before the error reaches the
    client (the timeout is a deadlock breaker — keeping the deadlocked
    transaction's locks would break nothing). Concurrent sessions'
    durable commits share log forces and counter bumps: the object
    store's group commit ({!Tdb_objstore.Object_store.commit}).

    A session must open with a [Hello] in this server's protocol version;
    any other first request, or a refused [Hello], ends it. Every data
    request then names an exposed collection, so objects change only
    through a collection and its indexes: no raw oid, root or class is
    reachable over the wire. Collection mutations run server-side as
    registered named closures, so a read-modify-write costs one round
    trip and never holds a shared lock while waiting for the client. *)

type addr =
  | Unix_path of string  (** Unix-domain socket at this path (unlinked first) *)
  | Tcp of string * int  (** numeric host, port; port 0 picks one — see {!port} *)

type config = {
  idle_timeout : float;  (** seconds of silence before a session is dropped; 0 = never *)
  read_only : bool;
      (** replication-follower mode: writes and durable commits are
          refused with a typed ["read_only"] error; reads serve the
          follower's restored snapshot (nondurable commit stays allowed so
          read sessions end cleanly) *)
  replica_every : int;
      (** with [backups] attached, emit an incremental backup every this
          many durable commits, extending the archive followers pull
          from; 0 = never ([tdb_server serve --replica-every N]) *)
}

val default_config : config
(** No idle timeout, writable, no auto-emission. Incoming frames are
    bounded by {!Proto.default_max_frame}. *)

type t

val create :
  ?config:config -> ?backups:Tdb_backup.Backup_store.t -> Tdb_objstore.Object_store.t -> addr -> t
(** Bind and listen. The server does not own the store's lifecycle: close
    it yourself after {!stop}.

    [backups] attaches an archive: [List_backups] returns a page of its
    index above the request's cursor and [Fetch_backup] one of its
    streams — the path replication followers
    ([Tdb_replica.Replica]) and [tdb_cli remote-restore] poll — and, when
    [config.replica_every > 0], every that-many durable commits
    auto-emit an incremental backup. Without [backups], both requests are
    refused with a typed ["no_archive"] error. Every connection is plain
    request/response. *)

val port : t -> int
(** The bound TCP port (use with [Tcp (host, 0)]).
    @raise Invalid_argument on a Unix-domain server. *)

val expose_collection :
  t ->
  name:string ->
  schema:'a Tdb_objstore.Obj_class.t ->
  indexers:'a Tdb_collection.Indexer.generic list ->
  ?mutations:(string * ('a -> Tdb_pickle.Pickle.reader -> unit)) list ->
  unit ->
  unit
(** Allow remote access to a collection (created on first touch if the
    database does not have it yet; opened with [indexers] otherwise).
    [mutations] are the named in-place updates remote peers may invoke;
    each receives the object and a reader over the client-supplied
    argument bytes. *)

val start : t -> unit
(** Spawn the accept loop in a background thread. *)

val serve : t -> unit
(** Run the accept loop in the calling thread (blocks until {!stop}). *)

val stop : ?timeout:float -> t -> unit
(** Stop accepting, shut down live sessions (their transactions abort),
    and wait up to [timeout] seconds for session threads to drain. *)
