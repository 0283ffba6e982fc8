(** Chunk store configuration.

    TDB is modular (paper Section 2): security can be switched off entirely
    (the paper's "TDB" vs "TDB-S" configurations), the cipher is pluggable,
    and sizes are tunable for the embedding device. *)

type cipher_choice =
  | Aes128 (* one-pass AES *)
  | Triple_aes (* three-pass EDE AES: the 3DES-cost configuration *)
  | Triple_xtea (* three-pass XTEA: small-footprint option, 8-byte blocks like DES *)

type hash_choice = Sha1 | Sha256

type t = {
  security : bool;
      (** When false, chunks are stored in plaintext, no hashing/MACs are
          performed and the one-way counter is never touched — the paper's
          plain "TDB" configuration. *)
  cipher : cipher_choice;
  hash : hash_choice;
  segment_size : int; (** log segment size in bytes *)
  anchor_slot_size : int; (** each of the two anchor slots *)
  initial_segments : int;
  max_utilization : float;
      (** maximal fraction of the store occupied by live chunks; the
          grow-vs-clean decision point (paper Section 7.3, default 0.6) *)
  checkpoint_residual_bytes : int;
      (** checkpoint on the commit that brings the residual log to this
          size: bounds what recovery replays (see the mli) *)
  map_fanout : int;
  map_depth : int; (** map covers [map_fanout ^ map_depth] chunk ids *)
  map_leaves : int;
      (** leaf map nodes a checkpoint leaves in memory before it unloads
          the ones no lookup reached since the previous checkpoint *)
  clean_batch : int; (** max segments reclaimed per cleaning pass *)
  chunk_cache_bytes : int;
      (** budget for the verified-chunk read cache (decrypted plaintext
          held inside the trusted boundary); 0 disables it *)
  domains : int;
      (** Always 1: commits seal on the calling domain (see the mli). *)
  shards : int;
      (** Always 1: one log, one anchor, one one-way counter (see the mli). *)
  tiers : int;
      (** Always 1: the log has one cleaning population (see the mli). *)
}

let default =
  {
    security = true;
    cipher = Triple_aes;
    hash = Sha1;
    segment_size = 64 * 1024;
    anchor_slot_size = 8 * 1024;
    initial_segments = 8;
    max_utilization = 0.6;
    checkpoint_residual_bytes = 768 * 1024;
    map_fanout = 64;
    map_depth = 4;
    map_leaves = 1024;
    clean_batch = 8;
    chunk_cache_bytes = 1024 * 1024;
    domains = 1;
    shards = 1;
    tiers = 1;
  }

(** Largest chunk payload storable with this configuration (one record must
    fit within a segment, leaving room for headers and the next-segment
    marker). *)
let max_chunk_size (c : t) = c.segment_size - 64

let validate (c : t) =
  if c.segment_size < 1024 then invalid_arg "Config: segment_size too small";
  if c.initial_segments < 4 then invalid_arg "Config: need at least 4 segments";
  if not (c.max_utilization > 0.05 && c.max_utilization < 0.98) then
    invalid_arg "Config: max_utilization out of (0.05, 0.98)";
  if c.map_fanout < 2 || c.map_depth < 2 then invalid_arg "Config: map too small";
  if c.map_leaves < 0 then invalid_arg "Config: map_leaves negative";
  if c.checkpoint_residual_bytes < 4 * c.segment_size then
    invalid_arg "Config: checkpoint_residual_bytes must cover a few segments";
  if c.chunk_cache_bytes < 0 then invalid_arg "Config: chunk_cache_bytes negative";
  if c.domains <> 1 then invalid_arg "Config: domains must be 1 (commits seal on the calling domain)";
  if c.shards <> 1 then invalid_arg "Config: shards must be 1 (the store has a single log)";
  if c.tiers <> 1 then invalid_arg "Config: tiers must be 1 (the log has a single cleaner)"
