(** Multi-client TPC-B over the network service: N client threads drive a
    {!Tdb_server.Server} through the RPC client, measuring throughput
    scaling vs client count under group commit. Durable-commit latency
    (log force + one-way counter bump) is emulated with real wall-clock
    delays so coalescing is measurable across threads. *)

type result = {
  clients : int;
  committed : int;  (** transactions committed across all clients *)
  retries : int;  (** lock-timeout retries *)
  elapsed : float;  (** wall-clock seconds of the drive phase *)
  tps : float;
  durable_requests : int;  (** durable commits requested by clients *)
  barriers : int;  (** sync + counter bumps actually paid during the drive *)
  counter : int64;  (** one-way counter at the end *)
  balance_ok : bool;  (** branch balances sum to the deltas applied *)
}

val pp_result : Format.formatter -> result -> unit

val net_scale : Workload.scale
(** Default table sizes for network runs (1 000 / 100 / 10). *)

val expose_schema : Tdb_server.Server.t -> unit
(** Expose the TPC-B demo tables on a server: account, teller and branch
    balance records under a unique hash index ["id"] with an ["add"]
    mutation (one round trip per read-modify-write), and the append-only
    history collection under a list index ["id"]. *)

val drive_txn :
  Tdb_server.Client.t -> Tdb_crypto.Drbg.t -> Workload.txn_input -> h_id:int -> int
(** [drive_txn c rng input ~h_id] commits one TPC-B transaction durably
    through [c], its history row numbered [h_id]. A lock timeout aborts the
    transaction server-side; it is retried after a 0–9 ms backoff drawn
    from [rng], so two colliding clients do not collide again at once.
    Returns the number of retries it took. *)

val run :
  ?security:bool ->
  ?sync_ms:float ->
  ?counter_ms:float ->
  ?scale:Workload.scale ->
  ?lock_timeout:float ->
  clients:int ->
  txns_per_client:int ->
  unit ->
  result
(** Build a fresh TPC-B database, serve it on a loopback TCP socket, and
    drive it with [clients] concurrent sessions committing durably.
    [sync_ms]/[counter_ms] are the emulated log-force and counter-bump
    latencies. Raises whatever a client thread raised, if any. *)
