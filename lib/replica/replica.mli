(** The replication follower: tails a primary's archive feed
    ([Subscribe] on the wire protocol) and keeps a local store converged
    on the primary's snapshots.

    The follower shares the primary's platform secret but trusts nothing
    it receives: every frame's MAC and hash-chain value is re-verified
    against the follower's own persisted chain state before anything is
    applied, and each apply is a single durable commit
    ({!Tdb_backup.Backup_store.apply_stream}) — a crash or a torn/tampered
    frame leaves the follower at the previous consistent snapshot. On a
    frame that cannot extend its chain, the follower drops the connection
    and alternates resubscribing from its own chain state (retrying a
    transiently tampered frame) and from genesis (letting the publisher
    restart a diverged follower from the newest full backup).

    Serve reads from the same store with a [read_only] {!Tdb_server.Server}:
    applies quiesce behind open read transactions
    ({!Tdb_objstore.Object_store.ingest}), so sessions stay serializable
    across snapshot switches. *)

type config = { poll : float  (** reconnect/backoff delay, seconds *) }

val default_config : config
(** 200 ms poll. Every verified frame is also kept in the follower's own
    archive, preserving point-in-time restore from the follower. *)

type status = {
  applied_id : int;  (** last backup id applied (0 = none yet) *)
  applied_seq : int;  (** primary commit sequence the store reflects *)
  primary_id : int;  (** newest archive id, per the last heartbeat *)
  primary_seq : int;  (** primary commit sequence, per the last heartbeat *)
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
(** Spawn the ingest thread: connect to the primary, subscribe from the
    follower's persisted chain position, verify and apply frames as they
    arrive, reconnecting (with [config.poll] backoff) until {!stop}.
    [backups] must be built over [os]'s chunk store with the shared
    device secret. *)

val status : t -> status

val converged : t -> bool
(** Connected and applied through the newest archive id the primary has
    advertised. *)

val wait_converged : ?timeout:float -> t -> bool
(** Poll {!converged} up to [timeout] seconds (default 30). *)

val stop : t -> unit
(** Stop the ingest thread and join it (idempotent). *)
