(** Experiment runner: drives the TPC-B workload against either engine and
    reports what the paper reports — steady-state average response time,
    foreground bytes written per transaction, and final database size. *)

type result = {
  label : string;
  txns : int;
  avg_ms : float;  (** measured CPU + simulated I/O *)
  p95_ms : float;
  cpu_avg_ms : float;
  io_avg_ms : float;
  bytes_per_txn : float;  (** foreground (transaction-path) writes only *)
  store_writes_per_txn : float;
      (** foreground store write {e calls} — a vectored flush counts once *)
  store_bytes_per_txn : float;  (** foreground store bytes, same window *)
  fg_checkpoints : int;  (** TDB only: checkpoints run inside measured txns *)
  db_size : int;
  live_bytes : int;  (** TDB only *)
  minor_words_per_txn : float;
      (** minor-heap words allocated per measured txn ([Gc.minor_words]):
          repeats run to run for one binary, but depends on the compiler *)
  cache_hits : int;
      (** TDB only: verified-chunk cache hits, 0 since the object store
          takes that tier's budget *)
  cache_misses : int;  (** TDB only: verified-chunk cache misses, so log reads *)
}

val hit_rate : result -> float
(** Verified-chunk cache hit rate in [0,1] (0 when the cache saw no traffic). *)

val percentile : float array -> float -> float
val mean : float array -> float

val run_tdb :
  ?security:bool -> ?max_utilization:float -> ?model:Sim_disk.model -> ?idle_every:int -> Workload.scale -> result
(** [idle_every] injects idle-period maintenance (uncharged cleaning) every
    N transactions — the paper's DRM workload shape. *)

val run_bdb : ?model:Sim_disk.model -> Workload.scale -> result

val pp_result : Format.formatter -> result -> unit
