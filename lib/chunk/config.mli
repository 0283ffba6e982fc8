(** Chunk store configuration.

    TDB is modular (paper Section 2): security can be switched off entirely
    (the paper's plain "TDB" vs "TDB-S" configurations), the cipher and
    hash are pluggable, and every size/cadence is tunable for the
    embedding device. *)

type cipher_choice =
  | Aes128  (** one-pass AES (verified against FIPS-197) *)
  | Triple_aes  (** three-pass EDE AES: a 3DES-cost configuration *)
  | Triple_xtea
      (** three-pass XTEA: DES-sized 8-byte blocks, smallest footprint —
          the closest shape to the paper's 3DES (see DESIGN.md) *)

type hash_choice = Sha1 | Sha256

type t = {
  security : bool;
      (** When false, chunks are stored in plaintext, no hashing/MACs are
          performed and the one-way counter is never touched — the paper's
          plain "TDB" configuration. *)
  cipher : cipher_choice;
  hash : hash_choice;
  segment_size : int;  (** log segment size in bytes *)
  anchor_slot_size : int;  (** each of the two anchor slots *)
  initial_segments : int;
  max_utilization : float;
      (** maximal fraction of the store occupied by live chunks; the
          grow-vs-clean decision point (paper Section 7.3, default 0.6) *)
  checkpoint_residual_bytes : int;
      (** checkpoint the location map on the commit that brings the
          residual log (bytes appended since the last checkpoint) to this
          size: bounds what recovery replays and the log region the
          cleaner cannot touch. Idle maintenance (a cleaning pass ends in
          a checkpoint) normally checkpoints well before it. *)
  map_fanout : int;
  map_depth : int;  (** the map covers [map_fanout ^ map_depth] chunk ids *)
  map_leaves : int;
      (** Bound on the leaf map nodes held in memory. Once more are
          loaded, each checkpoint unloads the clean leaves no lookup
          reached since the previous checkpoint; a later lookup fetches
          and checks them again. A filled leaf holds [map_fanout] entries
          of 11 words each. *)
  clean_batch : int;  (** max segments reclaimed per cleaning pass *)
  chunk_cache_bytes : int;
      (** budget for the verified-chunk read cache ({!Chunk_cache}):
          decrypted, hash-verified payloads held inside the trusted
          boundary so repeated reads skip the fetch/verify/decrypt path;
          0 disables it. An object store opened over the store sets this
          tier to 0 and adds it to its object cache's budget, in pickled
          bytes whose heap can be several times larger *)
  domains : int;
      (** Seal/unseal width; {!validate} accepts only 1. Commits seal and
          reads unseal on the calling domain: a pool of worker domains
          was measured on TPC-B and removed, since TDB-S ran at the same
          ops/s at widths 1 to 8 (DESIGN.md, "Sealing runs on the calling
          domain"). The field stays so that code reporting the
          configuration keeps building. *)
  shards : int;
      (** Number of chunk stores; {!validate} accepts only 1. A shard
          router with a cross-shard two-phase commit was measured on
          TPC-B and removed, since TDB-S lost 21% of its ops/s at width 2
          and 30% at width 4 (DESIGN.md, "Sharding"). The field stays so
          that code reporting the configuration keeps building. *)
  tiers : int;
      (** Number of cleaning generations; {!validate} accepts only 1. The
          log has a single least-utilized-first cleaner: a generational
          (hot/cold) cleaner was measured on the Zipf meter workload and
          removed, since it tripled write amplification at low skew and
          gained little at high skew (DESIGN.md, "Cleaner"). The field
          stays so that code reporting the configuration keeps building. *)
}

val default : t
(** Security on, Triple-AES + SHA-1 (the paper's TDB-S algorithm class),
    64 KiB segments, 60% maximum utilization. *)

val max_chunk_size : t -> int
(** Largest storable chunk payload (one record must fit in a segment). *)

val validate : t -> unit
(** @raise Invalid_argument on inconsistent settings. *)
