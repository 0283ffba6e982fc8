(** The names the perfbench harness calls, as aliases of {!Chunk_store}.

    The store has a single log, anchor and one-way counter; a shard router
    with a cross-shard two-phase commit was measured and removed
    (DESIGN.md, "Sharding"). This module exists only so that the benchmark
    harness, which may not change, keeps building. New code calls
    {!Chunk_store} directly. *)

type t = Chunk_store.t

val create :
  ?config:Config.t ->
  secret:Tdb_platform.Secret_store.t ->
  counters:Tdb_platform.One_way_counter.t array ->
  Tdb_platform.Untrusted_store.t array ->
  t
(** {!Chunk_store.create} over the one store and counter given.
    @raise Invalid_argument unless both arrays hold exactly one element. *)

val open_existing :
  ?config:Config.t ->
  secret:Tdb_platform.Secret_store.t ->
  counters:Tdb_platform.One_way_counter.t array ->
  Tdb_platform.Untrusted_store.t array ->
  t
(** {!Chunk_store.open_existing}, with arrays as for {!create}. *)

val stats : t -> Chunk_store.stats
val clean : ?max_segments:int -> t -> unit
val checkpoint : t -> unit
val durable_barrier : t -> unit
val live_bytes : t -> int
val close : t -> unit
