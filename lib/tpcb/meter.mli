(** Metering workload (DRM usage meters): a large population of tiny
    chunks updated with Zipf-skewed traffic on a database far larger than
    the chunk-cache budget — the workload that measures cleaner write
    amplification as a function of skew. *)

type scale = {
  meters : int;  (** population of tiny meter objects *)
  updates : int;  (** total meter updates to run *)
  batch : int;  (** meter updates per commit *)
  cache_bytes : int;  (** chunk-cache budget; DB size is many times this *)
}

val default_scale : scale
val quick_scale : scale

type result = {
  m_alpha : float;
  m_meters : int;
  m_updates : int;
  m_write_amp : float;
      (** cleaner bytes relocated / meter bytes committed, update phase
          only (the bulk load is excluded from both sides) *)
  m_bytes_relocated : int;
  m_bytes_committed : int;
  m_clean_passes : int;
  m_segments_cleaned : int;
  m_chunks_relocated : int;
  m_live_segments : int;
  m_db_size : int;
  m_live_bytes : int;
  m_cache_hit_rate : float;
  m_cpu_s : float;  (** wall-clock compute time for the update phase *)
  m_io_s : float;  (** simulated device I/O time for the update phase *)
}

val run : ?security:bool -> alpha:float -> scale -> result
(** Build the meter store (Sim_disk-wrapped, TPC-B bench configuration),
    bulk-load the population, run the Zipf update phase and report. *)

val pp_result : Format.formatter -> result -> unit
