(** TPC-B driver for TDB: four collection-store collections with a unique
    hash index on the 4-byte id (History uses a list index: cheap
    append-only maintenance). The benchmark configuration mirrors the
    paper's Section 7.3: SHA-1 hashing and a three-pass 64-bit-block
    cipher (Triple-XTEA standing in for 3DES), 60% default utilization.

    With [shards > 1] the database is branch-partitioned: branch [b], its
    tellers, its contiguous account block and its own history collection
    live on shard [b mod shards], so home-branch transactions commit
    through a single shard while remote-account transactions take the
    cross-shard two-phase path. *)

type t = {
  os : Tdb_objstore.Object_store.t;
  cs : Tdb_chunk.Shard_store.t;
  stores : Tdb_platform.Untrusted_store.t array;  (** unwrapped, for byte stats *)
  clock : Sim_disk.clock;
  scale : Workload.scale;
  nshards : int;
  accounts : Workload.record Tdb_collection.Cstore.collection;
  tellers : Workload.record Tdb_collection.Cstore.collection;
  branches : Workload.record Tdb_collection.Cstore.collection;
  history : Workload.history Tdb_collection.Cstore.collection array;
      (** one per shard ([history.s]); a single ["history"] when unsharded *)
  mutable next_history : int;
}

val setup :
  ?security:bool -> ?max_utilization:float -> ?model:Sim_disk.model -> ?shards:int -> Workload.scale -> t
(** Build and bulk-load a TPC-B database on [shards] in-memory stores
    (default 1) whose I/O charges the simulated clock. *)

val txn : t -> Workload.txn_input -> int
(** One TPC-B transaction (durable commit); returns the account balance. *)

val idle_clean : t -> unit
(** Idle-period maintenance (uncharged by the runner). *)

val bytes_written : t -> int
(** Summed over all shards. *)

val store_writes : t -> int
(** Cumulative store write calls, summed over all shards (a vectored
    flush counts once). *)

val db_size : t -> int
val live_bytes : t -> int
val sim_time : t -> float
val stats : t -> Tdb_chunk.Chunk_store.stats
(** Aggregated over shards (see {!Tdb_chunk.Shard_store.stats}). *)

val shards : t -> int

val txn_commits : t -> int
(** Transactions committed through the router since setup. *)

val cross_commits : t -> int
(** The subset of {!txn_commits} that spanned more than one shard
    (two-phase commits). *)
