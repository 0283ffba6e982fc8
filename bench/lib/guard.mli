(** The bench regression guard: [bench/main.exe guard BASELINE FRESH [TOL]].

    Dispatches on the fresh file's ["bench"] field; each bench has a small
    table of rules:
    - [tpcb]: per label, [ops_per_s] may drop at most TOL (default 0.15)
      below the baseline. When both files name the same scale, the counts
      ([cache_hits], [cache_misses], [bytes_per_txn],
      [store_writes_per_txn], [db_size], [live_bytes]), deterministic at
      equal scale, must equal the baseline's, failing with "regenerate
      BENCH_TPCB.json"; otherwise a note says so, and
      [store_writes_per_txn] may instead rise at most TOL above the
      baseline;
    - [meter]: the scales must match; [write_amp] <= (1+TOL)·base + 0.02;
      the cleaner and size counters ([bytes_relocated], [bytes_committed],
      [chunks_relocated], [segments_cleaned], [clean_passes], [db_size],
      [live_bytes]), deterministic at equal scale, must equal the
      baseline's, failing with "regenerate BENCH_METER.json";
    - [micro]: [ns_per_op] <= (1+TOL)·base, TOL defaulting to 0.50;
    - [replica]: per [interval], [backups] and [stream_bytes] —
      deterministic, since the emitted archive depends only on the seeded
      workload — must equal the baseline's, failing with "regenerate
      BENCH_REPLICA.json"; lag and timing fields are not gated (primary
      and follower timeshare the host).

    A row or field the baseline lacks is noted and skipped. *)

type verdict = Pass | Fail | Note

val run : ?tol:float -> base:Bench_json.t -> Bench_json.t -> (verdict * string) list
(** @raise Bench_json.Error when the fresh file has no ["bench"] field. *)

val passed : (verdict * string) list -> bool
val print : (verdict * string) list -> unit
