(** Crashpoint sweep harness: replay a deterministic chunk workload
    through a {!Tdb_chunk.Shard_store} router of width [n] (1 unless a
    sweep says otherwise), crash it at every write/sync boundary of its
    database and one-way-counter stores under seeded subsets of surviving
    unsynced writes, reopen, and check invariant oracles against a shadow
    model — plus bit-flip tamper sweeps over committed images. Every crash
    sweep is the same harness with a different workload phase; see
    DESIGN.md, "Crash model", for the phases and the admissibility rule
    the oracles enforce. *)

type trace_cfg = {
  accounts : int;
  tellers : int;
  branches : int;
  txns : int;
  durable_every : int;  (** every n-th transaction commits durably *)
  history_keep : int;  (** history chunks retained before deallocation *)
  epilogue_txns : int;  (** post-recovery phase-B transactions *)
  seed : string;
}

val default_trace : trace_cfg
val smoke_trace : trace_cfg

type violation = { v_run : string; v_kind : string; v_detail : string }

type crash_report = {
  boundaries : int;  (** write/sync boundaries in the recorded trace *)
  crashpoints : int;  (** boundaries actually swept (stride) *)
  seeds : int;
  runs : int;
  crashes : int;
  recoveries : int;
  violations : violation list;  (** empty on a healthy implementation *)
}

type tamper_report = {
  image_bytes : int;
  flips : int;
  detected : int;
  harmless : int;
  silent : int;  (** must be 0: a flip produced wrong data undetected *)
  silent_offsets : int list;
}

type report = Crash of crash_report | Tamper of tamper_report

val sweep_crashpoints :
  ?progress:(int -> int -> unit) -> trace:trace_cfg -> seeds:int -> stride:int -> unit -> crash_report
(** Plain phase: bulk load, then TPC-B-style transactions. Record the
    trace's boundary count [n], then for every [k < n] (step [stride]) and
    every seed: crash phase A at boundary [k], recover and check oracles,
    run the epilogue with a second seeded crashpoint, recover and check
    again, then probe usability. [progress] is called with [(k, n)]
    before each crashpoint. *)

val sweep_group_commit :
  ?progress:(int -> int -> unit) -> trace:trace_cfg -> seeds:int -> stride:int -> unit -> crash_report
(** Same sweep, but phase A replays the server's group-commit schedule:
    batches of nondurable session commits made durable by a staged
    barrier ({!Tdb_chunk.Shard_store.barrier_begin} / [barrier_sync] /
    [barrier_finish]) with further commits landing inside the barrier's
    sync window — so every boundary of a coalesced multi-session barrier
    is crashed, including the window commits' interaction with segment
    reclamation. *)

val sweep_commit_flush :
  ?progress:(int -> int -> unit) -> trace:trace_cfg -> seeds:int -> stride:int -> unit -> crash_report
(** Same sweep, but phase A makes every commit a large durable
    multi-chunk commit, so each flush is one coalesced vectored write of
    many fragments (record headers, sealed payloads, chain markers). The
    fault plan decomposes vectored writes into per-fragment boundaries,
    so this sweep crashes at every fragment boundary of a coalesced
    commit flush — any fragment-suffix loss must recover as an ordinary
    torn tail. *)

val sweep_demote :
  ?progress:(int -> int -> unit) -> trace:trace_cfg -> seeds:int -> stride:int -> unit -> crash_report
(** Same sweep over a {e tiered} store ([Config.tiers] forced to at least
    2, deeper if TDB_TIERS asks for more): phase A churns a Zipf-style
    hot head over a settled population and drives explicit
    {!Tdb_chunk.Shard_store.clean} passes, so cold survivors are
    re-appended one tier colder on every pass. With stride 1 this crashes
    at every I/O boundary of a demotion pass — mid-relocation, between a
    survivor's re-append and its location-map update, and inside the
    checkpoint sealing the pass. Relocation is logical-state-neutral
    (chunk versions are preserved), so the unchanged durability oracle
    doubles as the demotion-correctness oracle. *)

val sweep_replica :
  ?progress:(int -> int -> unit) -> trace:trace_cfg -> seeds:int -> stride:int -> unit -> crash_report
(** Replication-ingest sweep: build a primary archive (full, incrementals,
    a mid-sequence full, more incrementals), then replay it into a fresh
    follower through {!Tdb_backup.Backup_store.apply_stream} and crash the
    follower's database and counter stores at every write/sync boundary of
    the ingest. The oracle enforces the staged-apply guarantee: the
    recovered follower must sit at exactly the backup boundary before or
    after the stream being applied — chain state and chunk contents
    agreeing — and the remaining streams must then re-apply to
    convergence with the primary. *)

val sweep_shard_2pc :
  ?progress:(int -> int -> unit) ->
  ?shards:int ->
  trace:trace_cfg ->
  seeds:int ->
  stride:int ->
  unit ->
  crash_report
(** Cross-shard 2PC sweep: the router runs at width [shards] (default:
    [max 2 TDB_SHARDS]) — [shards] database stores and [shards] counter
    stores instrumented by one shared fault plan — and most transactions
    transfer value between two shards with a durable commit, driving the
    cross-shard two-phase path. With stride 1 the sweep crashes at every
    store boundary between prepare and commit: inside a participant's
    durable prepare, during the coordinator's decision write, between
    apply commits, and in cleanup. After recovery all shards must agree
    on each transaction's outcome — the recovered global state must sit
    at one admissible commit boundary (a batch half-applied on one shard
    matches none and is reported), with no false tampering and no
    per-shard counter rollback. *)

val sweep_tamper : ?stride:int -> ?mask:int -> trace:trace_cfg -> unit -> tamper_report
(** Build a committed image from the trace, then XOR [mask] into every
    [stride]-th byte (one at a time): each flip must be detected
    ([Tamper_detected] / [Recovery_failed]) or harmless (all reads return
    the original values) — never silently wrong data. *)

val sweep_replica_tamper : ?stride:int -> ?mask:int -> trace:trace_cfg -> unit -> tamper_report
(** Stream-tamper sweep for replication: XOR [mask] into every
    [stride]-th byte of each primary archive stream (and truncate each
    stream at four prefix lengths) before feeding it to a follower
    positioned just before that stream. Every damaged frame must be
    rejected with the follower still readable at its previous boundary,
    after which the genuine sequence must still apply to convergence —
    never silently wrong data. *)

val sweep_shard_tamper :
  ?stride:int -> ?mask:int -> ?shards:int -> trace:trace_cfg -> unit -> tamper_report
(** Tamper companion for the shard sweep, in two parts: bit-flips over
    each shard's cleanly-closed image (covering the decision-table chunk,
    its chain MAC and the width metadata at rest), then bit-flips over
    images crashed mid-2PC with every write retained — live staged
    prepares and decision entries. A flip must be detected or leave
    recovery at an admissible commit boundary (commit or presumed abort
    for a transaction that never returned); steering recovery to any
    other state is silent tampering and must never happen. *)

val sweeps :
  ?progress:(int -> int -> unit) ->
  ?shards:int ->
  trace:trace_cfg ->
  seeds:int ->
  stride:int ->
  tamper_stride:int ->
  mask:int ->
  unit ->
  (string * (unit -> report)) list
(** Every sweep the [tdb_crashfuzz] CLI runs, keyed by its JSON name, in
    summary order: the six crash sweeps ([stride], [seeds]), then
    {!sweep_tamper} and {!sweep_shard_tamper} at [tamper_stride] and
    {!sweep_replica_tamper} at its default stride, all with [mask].
    [shards] is the 2PC sweeps' width. *)

val json_summary : trace:trace_cfg -> (string * report) list -> string
(** Machine-readable summary for the [tdb_crashfuzz] CLI: one key per
    report, in list order, after the trace parameters. *)
