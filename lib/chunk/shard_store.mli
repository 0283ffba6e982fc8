(** Shard router: compose [N] independent chunk stores — each with its own
    log, location map, anchor, one-way counter, cleaner and group-commit
    barrier — behind the single-store API, with a tamper-evident two-phase
    commit for batches that span shards.

    {1 Why}

    Every commit in a single chunk store serializes through one anchor,
    one counter bump and one log tail. Sharding gives each partition its
    own spine, so single-shard commits — the common case under a
    branch-affine workload — never contend on another shard's tail:
    {!durable_barrier} and the staged barrier touch only the shards that
    actually committed since the last barrier (per-shard barrier counts
    are exported in {!shard_barriers}).

    {1 Chunk-id routing}

    Global chunk ids are striped over shards: reserved ids ([0, 8)) live
    on shard 0, and an allocation on shard [s] with local id [l ≥ 8] is
    published as global id [(l - 8) * n + s + 8]. With [n = 1] the
    encoding is the identity and every operation is a passthrough, so a
    1-shard router is byte-compatible with the unsharded store format.

    Each shard additionally owns two {e local} reserved ids the router
    never exposes: local 2 holds the shard's 2PC decision table (for
    transactions it coordinated) and local 3 its participant status
    (staged prepare + applied high-water marks). Shard 0's decision-table
    record doubles as the router metadata (the shard count), so opening a
    shard file standalone, or at the wrong width, is rejected instead of
    serving partial data.

    {1 Cross-shard commit (2PC, presumed abort)}

    A commit whose batch touches several shards is always made durable and
    runs two-phase commit built {e entirely} out of ordinary chunk
    operations — every record rides a shard's existing commit/barrier
    machinery and inherits its sealing, Merkle labelling, MAC'd anchor and
    one-way counter:

    + {b Prepare} (each participant, ascending): the staged batch is
      rewritten as a redo payload into freshly allocated chunks, and the
      participant's status chunk records [(coordinator, gtid, redo ids)] —
      one durable commit per participant.
    + {b Decision} (the coordinator = lowest participant): the decision
      table gains an entry [(gtid, participants)] MAC'd under the device
      secret and chained to the previous decision — one durable commit.
      This is the commit point.
    + {b Apply} (each participant): replay the redo payload, advance the
      per-coordinator high-water mark, release the staging chunks — one
      durable commit each, idempotent across crashes.
    + {b Cleanup}: the decision entry is dropped (nondurably; recovery
      re-drops it if it resurrects).

    Recovery at {!open_existing} resolves in-doubt transactions: a staged
    prepare whose decision entry exists is rolled forward; one whose
    gtid was never decided is presumed aborted and discarded. The outcome
    is {e provable}, not guessable: a flipped or forged decision entry
    fails its MAC ([Tamper_detected]); a coordinator shard rolled back to
    before a decision is caught both by its own one-way counter and by
    any participant whose high-water mark exceeds the coordinator's
    [next_gtid]; a participant whose durable prepare vanished while the
    decision stands is likewise reported as tampering rather than
    silently resolved to abort. *)

type t

exception Vetoed of int
(** A participant shard refused to prepare (see {!set_prepare_hook}); the
    cross-shard transaction was rolled back on every participant. *)

(** {1 Lifecycle} *)

val create :
  ?config:Config.t ->
  secret:Tdb_platform.Secret_store.t ->
  counters:Tdb_platform.One_way_counter.t array ->
  Tdb_platform.Untrusted_store.t array ->
  t
(** Create a fresh [n]-shard database over [n] untrusted stores and [n]
    one-way counters, where [n = config.shards] must equal both array
    lengths. Each shard receives [chunk_cache_bytes / n] of the cache
    budget so the configured total is preserved. *)

val open_existing :
  ?config:Config.t ->
  secret:Tdb_platform.Secret_store.t ->
  counters:Tdb_platform.One_way_counter.t array ->
  Tdb_platform.Untrusted_store.t array ->
  t
(** Open every shard, check the persisted shard count against the number
    of stores supplied, reconcile snapshots taken in lockstep, and resolve
    in-doubt cross-shard transactions (roll forward decided ones, discard
    undecided prepares, verify decision MACs and high-water marks).
    @raise Chunk_store.Recovery_failed on a shard-count mismatch or an
    unrecoverable shard.
    @raise Types.Tamper_detected on a forged/flipped decision record, a
    rolled-back coordinator, or a vanished prepare. *)

val wrap : Chunk_store.t -> t
(** A 1-shard router over an already-open store: pure passthrough. *)

val close : t -> unit

(** {1 Chunk operations} — same contracts as {!Chunk_store}, with global
    chunk ids. *)

val allocate : ?shard:int -> t -> Types.chunk_id
(** Allocate on [shard] (default: round-robin across shards). *)

val write : t -> Types.chunk_id -> string -> unit
val read : t -> Types.chunk_id -> string
val read_many : t -> Types.chunk_id list -> string list
val deallocate : t -> Types.chunk_id -> unit
val restore_chunk : t -> Types.chunk_id -> string -> unit

val commit : ?durable:bool -> t -> unit
(** Apply the buffered batch atomically. A batch confined to one shard
    commits exactly as an unsharded store would; a batch spanning shards
    runs the cross-shard 2PC above and is {e always durable} (atomicity
    across independently-recovering shards requires durable prepare and
    decision records).
    @raise Vetoed if a prepare hook refused; the batch is rolled back. *)

val abort_batch : t -> unit
val durable_barrier : t -> unit
(** Barrier only the shards that committed since their last durable
    point (all shards when [n = 1], preserving unsharded semantics). *)

(** {2 Staged barrier} — the three-stage split of {!durable_barrier},
    applied per dirty shard (see {!Chunk_store.barrier_begin}). *)

type barrier_token

val barrier_begin : t -> barrier_token
val barrier_sync : t -> barrier_token -> unit
val barrier_finish : t -> barrier_token -> unit

(** {1 Maintenance} *)

val checkpoint : t -> unit
val clean : ?max_segments:int -> t -> unit

(** {1 Snapshots} — taken in lockstep on every shard, so one id names a
    consistent cross-shard cut (callers must quiesce commits first, which
    the object store's state mutex already guarantees). *)

val snapshot : t -> int
val release_snapshot : t -> int -> unit
val snapshot_seq : t -> int -> int
val fold_snapshot : t -> int -> init:'a -> f:('a -> Types.chunk_id -> string -> 'a) -> 'a

val diff_snapshots :
  t ->
  old_id:int ->
  new_id:int ->
  changed:(Types.chunk_id -> string -> unit) ->
  removed:(Types.chunk_id -> unit) ->
  unit

(** {1 Introspection} *)

val stats : t -> Chunk_store.stats
(** Per-shard stats summed into one record ([backup_*] fields are taken
    from shard 0, where the backup store publishes them). The returned
    record is a fresh aggregate — do not mutate it. *)

val metrics : t -> Metrics.t
(** The store's metrics, named by owner: [store.*], [chunk_cache.*],
    [pool.*], [cleaner.*] (with [cleaner.tier.<k>.segments]), [backup.*]
    and [shard.*] (with [shard.<i>.counter/seq/size_bytes/barriers] at
    every width). The one place store metrics are named. *)

val shards : t -> int
val shard_store : t -> int -> Chunk_store.t
(** Direct access to one shard (read-only introspection; mutating a shard
    behind the router's back voids the 2PC bookkeeping). *)

val txn_commits : t -> int
(** Router-level commits (a cross-shard 2PC counts once). *)

val cross_commits : t -> int
(** Commits that spanned more than one shard. *)

val shard_barriers : t -> int array
(** Durable barriers each shard has run — the proof that single-shard
    commits on other shards skip it. *)

val shard_counters : t -> int64 array

val set_prepare_hook : t -> (int -> bool) option -> unit
(** Test hook: called with each participant shard during 2PC prepare;
    returning [false] makes that shard vote no, aborting the transaction
    on every participant ({!Vetoed}). *)

val counter_value : t -> int64
(** Sum of the shards' one-way counters (the single counter at [n = 1]). *)

val commit_seq : t -> int
(** Sum of the shards' commit sequence numbers. *)

val live_ids : t -> Types.chunk_id list
val utilization : t -> float
val live_bytes : t -> int
val capacity : t -> int
val store_size : t -> int
val config : t -> Config.t
