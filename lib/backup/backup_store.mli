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
    an untrusted hint for frame selection; consumers verify frames
    cryptographically before believing anything. *)

val index : Tdb_platform.Archival_store.t -> after:int -> (int * string) list
(** The archive's (id, name) pairs with id above [after], sorted by id;
    names {!parse_name} rejects are skipped. Reads names only. *)

val select : index:(int * string) list -> last_id:int -> reject_streak:int -> (int * string) list
(** The one frame-selection rule, shared by {!restore}, [tdb_cli
    remote-restore] and the replication follower: the frames a reader at
    chain position [last_id] applies next, in id order, from an archive
    [index] ((id, name) pairs; the kind comes from {!parse_name}) and the
    reader's count of consecutive polls ended by a rejected frame. Every
    id from the newest full up when that full is past [last_id + 1] (the
    incrementals below it chain from a history the reader cannot use) or
    when [reject_streak] is even and nonzero (restart a diverged
    follower); otherwise every id above [last_id]. A follower passes only
    the entries above [last_id] ({!index} [~after:last_id]), so a
    listing's size follows its lag, not the archive's length. A full at
    or below [last_id], which a whole index could add, would fail
    {!apply_stream}'s rollback check anyway. *)

val restore_chain : ?upto:int -> (int * string) list -> (int * string) list
(** The frames {!restore} (and [tdb_cli remote-restore]) applies from an
    archive [index]: {!select} [~last_id:0] over the entries at or below
    [upto] (default: all). The last one's id is the point restored to,
    when the chain is valid. *)

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
(** Validated restore into a {e fresh} chunk store: a follower catching
    up from empty. {!select} [~last_id:0] over the archive's {!index}, cut
    at [upto] (default: newest overall), picks the newest full and the
    ids after it. Their names must run contiguously from that full, so a
    gap is refused before anything is applied; then each frame is read
    and applied through {!apply_stream}, one at a time. Only the chain it
    applies is read, and only one frame is held at a time. Returns the id
    of the last backup applied. The restored store holds the chain
    state that id leaves ([base_snapshot = None]), so its next backup is a
    full one with the next id: it extends the archive instead of
    overwriting the streams it was restored from.
    @raise Invalid_backup on missing/forged/out-of-order streams — a
    damaged newest frame is refused, not rolled back past ([upto] picks
    an older point) — and on records too large for the target store's
    configuration (the batch is aborted, leaving the target clean). *)

val apply_stream : t -> string -> header * int list option
(** Replication ingest: verify one archive stream (MAC, header, hash chain
    recomputed from this store's persisted chain state) and apply it
    atomically — restored chunks, deallocations and the advanced chain
    state land in a single durable commit, so a crash mid-ingest leaves
    the store at the previous consistent snapshot. A [Full] stream
    re-bootstraps in place (live ids absent from it are deallocated in the
    same batch); fulls with [id <= last_id] are rejected to refuse replay
    rollback. Returns the applied header and the ids the stream changed or
    removed ([None] for a [Full], which may change any chunk).
    @raise Invalid_backup on any verification failure (store unchanged). *)
