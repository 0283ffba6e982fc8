(** The backup store (paper Figure 1, Section 2): creates and securely
    restores full and incremental database backups via the archival store.

    Backups are built from copy-on-write chunk-store snapshots (foreground
    transactions keep running); incrementals are Merkle-pruned diffs of
    two snapshots, so their cost is proportional to what changed. Every
    stream is encrypted and MAC'd under keys derived from the platform
    secret store, and the sequence of backups is hash-chained: restore
    applies only a valid full backup followed by its incrementals {e in
    the order they were created} — gaps, reordering, tampering and foreign
    devices are all rejected ({!Invalid_backup}).

    Chain state (last id, chain value, base snapshot) persists inside the
    database itself at a reserved chunk id, under TDB's own tamper
    protection. *)

exception Invalid_backup of string

type t

type kind = Full | Incremental of int  (** base backup id *)

type header = {
  id : int;  (** backup id, dense and increasing *)
  kind : kind;
  seq : int;  (** primary commit sequence captured by the snapshot *)
}

type chain_state = {
  last_id : int;  (** 0 = no backups yet *)
  chain : string;  (** cumulative HMAC chain value ("genesis" before any) *)
  base_snapshot : int option;
      (** the snapshot the next incremental diffs against; [None] on
          followers (they never diff) and before the first full *)
}

val create :
  secret:Tdb_platform.Secret_store.t ->
  archive:Tdb_platform.Archival_store.t ->
  Tdb_chunk.Chunk_store.t ->
  t

val chain_state : t -> chain_state
(** The persisted chain position (reserved chunk id inside the store). *)

val metrics : t -> Tdb_chunk.Metrics.t
(** The chain position as [backup.last_id], [backup.base_snapshot] (-1
    when there is none: no backups yet, or a replication follower) and
    [backup.chain] (hex). Reads the store, so a caller that shares it with
    transactions runs this under the object store's state mutex. *)

val archive : t -> Tdb_platform.Archival_store.t

val stream_name : header -> string
(** Canonical archive entry name for a stream with this header
    ([tdb-NNNNNN-full|incr]) — what {!parse_name} inverts. *)

val parse_name : string -> (int * [ `Full | `Incremental ]) option
(** Parse an archive entry name ([tdb-NNNNNN-full|incr]) to (id, kind) —
    an untrusted hint for a follower's frame selection; consumers verify
    frames cryptographically before believing anything. *)

val backup_full : t -> int
(** Write a full backup; resets the incremental chain. Returns its id. *)

val backup_incremental : t -> int
(** Write an incremental against the previous backup (falls back to a full
    backup when there is no base). Returns its id. *)

val restore :
  secret:Tdb_platform.Secret_store.t ->
  archive:Tdb_platform.Archival_store.t ->
  ?upto:int ->
  into:Tdb_chunk.Chunk_store.t ->
  unit ->
  int
(** Validated restore into a {e fresh} chunk store: applies the newest full
    backup with id ≤ [upto] (default: newest overall) and its incrementals
    in sequence, each through {!apply_stream}'s checks and apply. Returns
    the id of the last backup applied. The restored store holds the chain
    state that id leaves ([base_snapshot = None]), so its next backup is a
    full one with the next id: it extends the archive instead of
    overwriting the streams it was restored from.
    @raise Invalid_backup on missing/forged/out-of-order streams, and on
    records too large for the target store's configuration (the batch is
    aborted, leaving the target clean). *)

val apply_stream : t -> string -> header
(** Replication ingest: verify one archive stream (MAC, header, hash chain
    recomputed from this store's persisted chain state) and apply it
    atomically — restored chunks, deallocations and the advanced chain
    state land in a single durable commit, so a crash mid-ingest leaves
    the store at the previous consistent snapshot. A [Full] stream
    re-bootstraps in place (live ids absent from it are deallocated in the
    same batch); fulls with [id <= last_id] are rejected to refuse replay
    rollback. Returns the applied header.
    @raise Invalid_backup on any verification failure (store unchanged). *)
