(** TPC-B driver for TDB: four collection-store collections with a unique
    hash index on the 4-byte id (History uses a list index: cheap
    append-only maintenance). The benchmark configuration mirrors the
    paper's Section 7.3: SHA-1 hashing and a three-pass 64-bit-block
    cipher (Triple-XTEA standing in for 3DES), 60% default utilization. *)

type t = {
  os : Tdb_objstore.Object_store.t;
  cs : Tdb_chunk.Chunk_store.t;
  store : Tdb_platform.Untrusted_store.t;  (** unwrapped, for byte stats *)
  clock : Sim_disk.clock;
  scale : Workload.scale;
  accounts : Workload.record Tdb_collection.Cstore.collection;
  tellers : Workload.record Tdb_collection.Cstore.collection;
  branches : Workload.record Tdb_collection.Cstore.collection;
  history : Workload.history Tdb_collection.Cstore.collection;
  mutable next_history : int;
}

val setup : ?security:bool -> ?max_utilization:float -> ?model:Sim_disk.model -> Workload.scale -> t
(** Build and bulk-load a TPC-B database on an in-memory store whose I/O
    charges the simulated clock. *)

val txn : t -> Workload.txn_input -> int
(** One TPC-B transaction (durable commit); returns the account balance. *)

val idle_clean : t -> unit
(** Idle-period maintenance (uncharged by the runner). *)

val bytes_written : t -> int

val store_writes : t -> int
(** Cumulative store write calls (a vectored flush counts once). *)

val db_size : t -> int
val live_bytes : t -> int
val sim_time : t -> float
val stats : t -> Tdb_chunk.Chunk_store.stats
