(** The replication follower: polls a primary's archive over the wire
    protocol ([List_backups] above its own chain position, then
    [Fetch_backup] per frame — the same path [tdb_cli remote-restore]
    uses) and keeps a local store converged on the primary's snapshots.

    The follower shares the primary's platform secret but trusts nothing
    it receives: every frame's MAC and hash-chain value is re-verified
    against the follower's own persisted chain state before anything is
    applied, and each apply is a single durable commit
    ({!Tdb_backup.Backup_store.apply_stream}) — a crash or a torn/tampered
    frame leaves the follower at the previous consistent snapshot. A frame
    that cannot extend its chain ends the poll; {!select} then alternates
    between retrying from the follower's own chain position (a transiently
    tampered frame) and restarting from the newest full backup (a
    diverged follower).

    Serve reads from the same store with a [read_only] {!Tdb_server.Server}:
    applies quiesce behind open read transactions
    ({!Tdb_objstore.Object_store.ingest}), so sessions stay serializable
    across snapshot switches. *)

type config = { poll : float  (** idle poll interval and reconnect delay, seconds *) }

val default_config : config
(** 50 ms poll. Every verified frame is also kept in the follower's own
    archive, preserving point-in-time restore from the follower. *)

type status = {
  applied_id : int;  (** last backup id applied (0 = none yet) *)
  applied_seq : int;  (** primary commit sequence the store reflects *)
  primary_id : int;
      (** newest archive id of the last listing; [applied_id] when it
          listed nothing above the follower's position *)
  frames_applied : int;
  frames_rejected : int;  (** frames that failed verification *)
  reconnects : int;
  connected : bool;
}

type t

val select : index:(int * string) list -> last_id:int -> reject_streak:int -> (int * string) list
(** The frames one poll fetches, in id order, from the primary's archive
    [index] ((id, name) pairs; the kind comes from
    {!Tdb_backup.Backup_store.parse_name}), the follower's chain position
    [last_id] and its count of consecutive polls ended by a rejected
    frame. Every id from the newest full up when that full is past
    [last_id + 1] (the incrementals below it chain from a history the
    follower cannot use) or when [reject_streak] is even and nonzero
    (restart a diverged follower); otherwise every id above [last_id].
    A poll passes only the entries above [last_id]
    ({!Tdb_server.Client.list_backups} [~after:last_id]), so a listing's
    size follows the follower's lag, not the archive's length. A full at
    or below [last_id], which a whole index could add, would fail
    {!Tdb_backup.Backup_store.apply_stream}'s rollback check anyway. *)

val start :
  ?config:config ->
  os:Tdb_objstore.Object_store.t ->
  backups:Tdb_backup.Backup_store.t ->
  from:Tdb_server.Server.addr ->
  unit ->
  t
(** Spawn the ingest thread: connect to the primary with a
    {!Tdb_server.Client}, then poll — list the archive above the
    follower's persisted chain position, fetch and verify
    and apply each frame {!select} picks — sleeping [config.poll] after a poll that applied
    nothing, and reconnecting after [config.poll] when the connection
    fails, until {!stop}.
    [backups] must be built over [os]'s chunk store with the shared
    device secret. *)

val status : t -> status

val converged : t -> bool
(** Connected and applied through {!status}'s [primary_id]. *)

val wait_converged : ?timeout:float -> t -> bool
(** Poll {!converged} up to [timeout] seconds (default 30). *)

val stop : t -> unit
(** Stop the ingest thread and join it (idempotent); a request in flight
    is cut off by shutting the connection down. *)
