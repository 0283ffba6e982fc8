(** The chunk store (paper Section 3): trusted storage for named,
    variable-sized byte sequences — {e chunks} — on top of a store the
    attacker fully controls.

    {1 Guarantees}

    - {b Secrecy}: every stored payload is encrypted (when
      {!Config.t.security} is on) under keys derived from the platform
      secret store.
    - {b Tamper detection}: payloads are validated against the Merkle tree
      embedded in the location map, whose root lives in the MAC'd anchor.
      Violations raise {!Types.Tamper_detected}.
    - {b Replay detection}: durable commits advance the platform one-way
      counter; {!open_existing} cross-checks it and rejects replayed
      images.
    - {b Atomicity}: a batch of {!write}/{!deallocate} operations commits
      atomically with respect to crashes — durably, or nondurably (the
      nondurable batch survives only once a later durable barrier lands).
    - {b Log-structured storage} with cleaning bounded by the
      [max_utilization] knob (grow-vs-clean policy, paper Section 7.3),
      and cheap copy-on-write {!snapshot}s, diffable — the
      substrate for full/incremental backups.

    Concurrency: the chunk store itself is single-threaded; the object
    store serializes access with its state mutex (paper Section 4.2.3).
    Sealing, unsealing and recovery's label checks all run on the calling
    thread (see DESIGN.md, "Sealing runs on the calling domain"). *)

type t
(** An open chunk store. *)

(** {1 Lifecycle} *)

val create :
  ?config:Config.t ->
  secret:Tdb_platform.Secret_store.t ->
  counter:Tdb_platform.One_way_counter.t ->
  Tdb_platform.Untrusted_store.t ->
  t
(** Create a fresh database, overwriting whatever the store held. *)

exception Recovery_failed of string
(** No valid anchor: the store is empty, wiped, or its anchors destroyed. *)

val open_existing :
  ?config:Config.t ->
  secret:Tdb_platform.Secret_store.t ->
  counter:Tdb_platform.One_way_counter.t ->
  Tdb_platform.Untrusted_store.t ->
  t
(** Open an existing database: recovery verifies the anchor, replays the
    residual log (verifying the commit-chain MAC and every referenced
    payload), discards trailing nondurable commits and checks the one-way
    counter, writing nothing; then open extends the store, repairs a
    counter one behind and checkpoints.
    @raise Recovery_failed when no valid anchor exists, or when reserved
    chunk 2 holds a record: the store was written as one shard of a
    sharded database, which this version no longer serves.
    @raise Types.Tamper_detected on MAC/hash/counter violations (including
    replayed images). *)

type recovery = { replayed : int; dropped : int; counter_behind : bool }
(** What recovery found: residual-log commits replayed, commits dropped
    past the durable prefix, and whether the one-way counter is one
    behind (open increments it). *)

val recover :
  ?config:Config.t ->
  secret:Tdb_platform.Secret_store.t ->
  counter:Tdb_platform.One_way_counter.t ->
  Tdb_platform.Untrusted_store.t ->
  t * recovery
(** {!open_existing}'s checks alone, writing nothing: the recovered
    store, for reading and for {!metrics}, and what open would repair.
    Nothing may be written through it (it neither settles nor starts a
    sealing session), and {!close} would checkpoint: drop it instead.
    @raise Recovery_failed
    @raise Types.Tamper_detected as {!open_existing} does. *)

val verify :
  ?config:Config.t ->
  secret:Tdb_platform.Secret_store.t ->
  counter:Tdb_platform.One_way_counter.t ->
  Tdb_platform.Untrusted_store.t ->
  recovery * int
(** Open's recovery plus a validated read of every live chunk, writing
    nothing: the report and the chunk count, or the exception open raises. *)

val close : t -> unit
(** Checkpoint, sync and close the underlying store. *)

(** {1 Chunk operations} (paper Figure 2)

    Writes and deallocations are buffered into the current batch and
    applied atomically by {!commit}. *)

val allocate : t -> Types.chunk_id
(** Returns a previously unallocated chunk id. *)

val write : t -> Types.chunk_id -> string -> unit
(** Buffer a new state for the chunk (any size, including empty). Its
    commit writes the bytes through to the verified-chunk cache, when
    that has a budget.
    @raise Types.Not_allocated if the id was never allocated.
    @raise Types.Chunk_too_large if the state cannot fit in a segment. *)

val read : t -> Types.chunk_id -> string
(** Last written state (buffered batch included), validated against the
    Merkle path and decrypted.
    @raise Types.Not_written if the chunk has no state.
    @raise Types.Tamper_detected if validation fails. *)

val deallocate : t -> Types.chunk_id -> unit
(** Buffer removal of the chunk and release of its id.
    @raise Types.Not_allocated if the id is not allocated. *)

val restore_chunk : t -> Types.chunk_id -> string -> unit
(** Restore-mode write: claim a {e specific} id and buffer data for it —
    used by the backup store to rebuild a database with its original ids.
    @raise Types.Chunk_too_large under the same bound as {!write}: a
    backup stream is untrusted input and oversized records are rejected
    before they can derail a commit. *)

val commit : ?durable:bool -> t -> unit
(** Apply the buffered batch atomically. [durable] (default [true]) runs
    the staged barrier below; a nondurable commit is atomic with the next
    durable barrier.
    @raise Invalid_argument if durable while a barrier is in flight. *)

val abort_batch : t -> unit
(** Discard the buffered batch. *)

val batch_size : t -> int
(** Number of chunks the buffered batch touches. *)

(** {2 Durable barrier}

    The one durable path, in three stages: [begin] appends the buffered
    batch (possibly empty) under a durable closing record that claims the
    next counter value, and flushes it; [sync] forces the store and bumps
    the one-way counter; [finish] reclaims garbage. A durable {!commit}
    and {!durable_barrier} run them back to back. With an empty batch and
    nothing to promote (no nondurable commit since the last durable
    point) the barrier is idle: its stages touch nothing, with no sync
    and no counter bump. A barrier promotes every earlier nondurable
    commit: the group-commit hook, one sync + counter bump for many
    transactions. [begin] and [finish] run under the caller's state lock;
    [sync] may run outside it while other sessions land nondurable
    commits, which the {e next} barrier covers. One durable point is in
    flight at a time: in the window a durable {!commit} or a second
    [begin] raises [Invalid_argument] and checkpoints are deferred (the
    object store makes its callers wait instead). *)

type barrier_token

val barrier_begin : t -> barrier_token
(** Append and flush the buffered batch and its durable commit record,
    unless the barrier is idle.
    @raise Invalid_argument while a durable point is in flight. *)

val barrier_sync : t -> barrier_token -> unit
(** Force the store and advance the one-way counter.
    @raise Types.Tamper_detected on a counter mismatch. *)

val barrier_finish : t -> barrier_token -> unit
(** Reclaim garbage (segments emptied since [begin] wait for the next
    barrier), account the durable commit, and checkpoint if due. *)

val durable_barrier : t -> unit
(** Promote every nondurable commit (and the buffered batch) with one
    sync and one counter bump; idle when there is nothing to promote. *)

(** {1 Maintenance} *)

val checkpoint : ?reserve:bool -> t -> unit
(** Write dirty location-map nodes and re-anchor; bounds recovery to the
    (now empty) residual log. Runs in every {!clean}, and on the commit
    that brings the residual log to [Config.checkpoint_residual_bytes],
    which first makes room for the map nodes (maybe cleaning); so does
    [~reserve:true], for crash harnesses that checkpoint on their own. *)

val clean : ?max_segments:int -> t -> unit
(** Explicit idle-time log cleaning (paper: reorganization is deferred to
    idle periods). Checkpoints first so the whole log is eligible. *)

(** {1 Snapshots} (copy-on-write; the substrate for backups) *)

val snapshot : t -> int
(** Checkpoint and pin the current committed state; O(map), no copying. *)

val release_snapshot : t -> int -> unit
val snapshot_seq : t -> int -> int

val diff_snapshots :
  t ->
  old_id:int option ->
  new_id:int ->
  changed:(Types.chunk_id -> string -> unit) ->
  removed:(Types.chunk_id -> unit) ->
  unit
(** Stream the difference between two snapshots, pruning identical
    subtrees by Merkle hash — the backup primitive. From [old_id = None]
    every chunk of [new_id] is [changed], ascending: a full backup. *)

(** {1 Introspection} *)

type stats = {
  mutable commits : int;
  mutable durable_commits : int;
  mutable checkpoints : int;
  mutable clean_passes : int;
  mutable segments_cleaned : int;
  mutable chunks_relocated : int;
  mutable bytes_relocated : int;
      (** chunk ciphertext bytes the cleaner recopied — the numerator of
          cleaner write amplification (relative to [bytes_data] committed) *)
  mutable live_segments : int;
      (** segments holding live bytes (gauge, refreshed by {!stats}) *)
  mutable tampers : int;
  mutable bytes_data : int;  (** chunk-record payload bytes appended *)
  mutable bytes_map : int;  (** map-node payload bytes appended *)
  mutable bytes_commit : int;  (** commit-record payload bytes appended *)
  mutable grow_policy : int;  (** segments added because utilization ≥ max *)
  mutable grow_fallback : int;  (** segments added when nothing was cleanable *)
  mutable grow_backstop : int;  (** segments added by the append backstop *)
  mutable cache_hits : int;  (** verified-chunk cache hits (reads served
                                 without fetch/verify/decrypt) *)
  mutable cache_misses : int;  (** verified-chunk cache misses *)
  mutable cache_evictions : int;  (** LRU evictions under budget pressure *)
}

val stats : t -> stats

val metrics : t -> Metrics.t
(** The store's metrics, named by owner: [store.*], [chunk_cache.*],
    [cleaner.*] (with the [cleaner.live_segments] gauge) and the crypto
    work counts [security.*] ({!Security.metrics}). The one place store
    metrics are named. *)

(** {2 Verified-chunk read cache}

    {!read} consults a budgeted LRU of decrypted, hash-verified payloads
    ({!Chunk_cache}) before paying the full fetch/verify/decrypt path.
    Coherence is by committed version: entries are served only at the
    exact version the location map holds, dropped on deallocation, and
    naturally void after recovery (the cache is rebuilt empty). A commit
    writes every write through the cache, so read-after-write stays a
    hit. Budget comes from {!Config.t.chunk_cache_bytes}; an object store
    opened over the store takes that budget for its own cache and sets
    this one to 0 ([Object_store.of_shard_store]). *)

val cache_resident : t -> int
(** Entries currently cached. *)

val cache_bytes : t -> int
(** Budget-accounted bytes currently cached. *)

val cache_budget : t -> int

val set_cache_budget : t -> int -> unit
(** Adjust the cache budget at runtime (evicts immediately if over).
    @raise Invalid_argument on a negative budget. *)

val counter_value : t -> int64
(** The database's view of the one-way counter (advanced by durable
    commits and durable barriers while security is on). *)

val commit_seq : t -> int
(** Sequence number of the last commit (durable or not); snapshots carry
    the sequence current when they were taken. *)

val live_ids : t -> Types.chunk_id list
(** Chunk ids present in the last committed location map, ascending.
    Pending batch writes are excluded. This is the committed footprint a
    full backup captures, and what a replica ingest reconciles a stale
    follower against. *)

val utilization : t -> float
val live_bytes : t -> int
val capacity : t -> int
val store_size : t -> int
val config : t -> Config.t
