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
  checkpoint_every : int;
      (** checkpoint the location map after this many commits *)
  checkpoint_residual_bytes : int;
      (** ... or once this many bytes of residual log accumulate, whichever
          comes first: bounds both recovery time and the log space the
          cleaner cannot touch *)
  map_fanout : int;
  map_depth : int; (** map covers [map_fanout ^ map_depth] chunk ids *)
  clean_batch : int; (** max segments reclaimed per cleaning pass *)
  chunk_cache_bytes : int;
      (** budget for the verified-chunk read cache (decrypted plaintext
          held inside the trusted boundary); 0 disables it *)
  domains : int;
      (** width of the seal/unseal pipeline: how many OCaml domains
          (including the caller) may work on one commit's seals or one
          batched read's unseals. 1 = exact sequential behavior, never
          touching the domain pool. Defaults to the available cores
          ([TDB_DOMAINS] overrides; see {!Tdb_parallel.Pool}). Any width
          produces byte-identical store images — parallelism never
          reorders appends or IV draws. *)
  replica_interval_commits : int;
      (** When a server has a backup store attached, auto-emit an
          incremental backup every this many durable commits, feeding the
          replication stream without manual [backup_incremental] calls.
          0 disables auto-emission (the default, so standalone stores and
          benches are unchanged). [TDB_REPLICA_EVERY] overrides. *)
  shards : int;
      (** Number of independent chunk-store shards a {!Shard_store} router
          composes: each shard has its own log, location map, anchor and
          one-way counter, so single-shard commits never contend on
          another shard's tail. 1 = a single spine, byte-compatible with
          the unsharded store format. [TDB_SHARDS] overrides the
          default. *)
  tiers : int;
      (** Always 1: the log has one cleaning population (see the mli). *)
}

let default_shards () =
  match Sys.getenv_opt "TDB_SHARDS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 && n <= 64 -> n
      | _ -> invalid_arg "TDB_SHARDS must be an integer in [1, 64]" )
  | None -> 1

let default_replica_interval () =
  match Sys.getenv_opt "TDB_REPLICA_EVERY" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> n
      | _ -> invalid_arg "TDB_REPLICA_EVERY must be an integer >= 0" )
  | None -> 0

let default =
  {
    security = true;
    cipher = Triple_aes;
    hash = Sha1;
    segment_size = 64 * 1024;
    anchor_slot_size = 8 * 1024;
    initial_segments = 8;
    max_utilization = 0.6;
    checkpoint_every = 4096;
    checkpoint_residual_bytes = 768 * 1024;
    map_fanout = 64;
    map_depth = 4;
    clean_batch = 8;
    chunk_cache_bytes = 1024 * 1024;
    domains = Tdb_parallel.Pool.default_domains ();
    replica_interval_commits = default_replica_interval ();
    shards = default_shards ();
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
  if c.checkpoint_every < 1 then invalid_arg "Config: checkpoint_every < 1";
  if c.checkpoint_residual_bytes < 4 * c.segment_size then
    invalid_arg "Config: checkpoint_residual_bytes must cover a few segments";
  if c.chunk_cache_bytes < 0 then invalid_arg "Config: chunk_cache_bytes negative";
  if c.domains < 1 || c.domains > 128 then invalid_arg "Config: domains out of [1, 128]";
  if c.replica_interval_commits < 0 then invalid_arg "Config: replica_interval_commits negative";
  if c.shards < 1 || c.shards > 64 then invalid_arg "Config: shards out of [1, 64]";
  if c.tiers <> 1 then invalid_arg "Config: tiers must be 1 (the log has a single cleaner)"
