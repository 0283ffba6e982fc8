(** Client library for the TDB network service: a synchronous RPC layer
    over {!Proto}. One request in flight per connection (callers are
    serialized). Every data call goes through a collection the server
    exposes; objects travel pickled with their
    {!Tdb_objstore.Obj_class}, so client and server must register the same
    classes. *)

exception Server_error of { tag : string; msg : string }
(** A wire-level error from the server. Notable tags: ["lock_timeout"]
    (the server aborted the transaction to break a deadlock — retry a
    fresh one), ["not_exposed"], ["type_mismatch"], ["no_txn"],
    ["not_found"], ["tamper"]. *)

exception Unexpected_response of string
(** The server answered with the wrong response shape (protocol bug). *)

type t

val connect : Server.addr -> t
(** Connect and perform the version handshake. Response frames are
    bounded by {!Proto.default_max_frame}.
    The socket is closed when the connect or the handshake fails.
    @raise Server_error on a version refusal. *)

val close : t -> unit
(** Polite goodbye, then close. Idempotent. *)

val disconnect_abruptly : t -> unit
(** Drop the socket without a goodbye — the server must abort the
    session's transaction and release its locks. For tests. *)

val shutdown : t -> unit
(** Shut the socket down without closing it, from any thread: a request
    blocked on it fails ([End_of_file] or [Unix.Unix_error]). {!close}
    still releases the descriptor. *)

(** {1 Transactions} — at most one open per connection. *)

val begin_ : t -> unit
val commit : ?durable:bool -> t -> unit
val abort : t -> unit

val with_txn : ?durable:bool -> t -> (unit -> 'a) -> 'a
(** Begin, run, commit; abort on exception (tolerating the server having
    already aborted, as after a lock timeout). *)

(** {1 Collections} *)

val coll_insert : t -> coll:string -> 'a Tdb_objstore.Obj_class.t -> 'a -> int

val coll_find :
  t -> coll:string -> index:string -> 'k Tdb_collection.Gkey.t -> 'k -> 'a Tdb_objstore.Obj_class.t ->
  (int * 'a) option

val coll_scan :
  t ->
  coll:string ->
  index:string ->
  ?limit:int ->
  ?min_key:'k ->
  ?max_key:'k ->
  'k Tdb_collection.Gkey.t ->
  'a Tdb_objstore.Obj_class.t ->
  (int * 'a) list
(** [limit = 0] means unbounded; [min_key]/[max_key] select a range scan
    (B-tree indexes only). *)

val coll_mutate :
  t ->
  coll:string ->
  index:string ->
  mutation:string ->
  'k Tdb_collection.Gkey.t ->
  'k ->
  'a Tdb_objstore.Obj_class.t ->
  arg:(Tdb_pickle.Pickle.writer -> unit) ->
  'a
(** Invoke a server-registered named mutation on the object with this key
    and return the updated object — a read-modify-write in one round
    trip, executed under the object's exclusive lock server-side. *)

val coll_size : t -> coll:string -> int

(** {1 Introspection} *)

val metrics : t -> Tdb_chunk.Metrics.t
(** The server's [server.*] metrics, the object store's [object_cache.*]
    and [group_commit.*] ({!Tdb_objstore.Object_store.metrics}), then the
    store's ({!Tdb_chunk.Chunk_store.metrics}). *)

(** {1 Archive} — remote access to the server's backup archive. *)

val list_backups : ?after:int -> t -> (int * string) list
(** (backup id, archive stream name) pairs with id above [after] (default
    0: the whole index), in id order. Fetched a page of at most
    {!Proto.list_page} entries per request, so no answer outgrows a frame
    however long the archive is. Raises {!Server_error} with tag
    ["no_archive"] when the server has no archive attached. *)

val fetch_backup : t -> name:string -> string
(** One archive stream by name, as listed by {!list_backups}. Fetched a
    slice of at most {!Proto.fetch_slice} bytes per request, so a stream
    larger than a frame still arrives whole. The stream is an opaque
    sealed backup frame: it is verified and unsealed locally
    by {!Tdb_backup.Backup_store} under the device secret — a server (or
    wire) that tampers with it is detected at restore time, not trusted. *)
