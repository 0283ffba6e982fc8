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
    that cannot extend its chain ends the poll; the next poll's
    {!Tdb_backup.Backup_store.select} (the rule restore also uses) alternates
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

val start :
  ?config:config ->
  os:Tdb_objstore.Object_store.t ->
  backups:Tdb_backup.Backup_store.t ->
  from:Tdb_server.Server.addr ->
  unit ->
  t
(** Spawn the ingest thread: connect to the primary with a
    {!Tdb_server.Client}, then poll — list the archive above the
    follower's persisted chain position, fetch and verify and apply each
    frame {!Tdb_backup.Backup_store.select} picks — sleeping [config.poll]
    after a poll that applied nothing, and reconnecting after [config.poll] when the connection
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
