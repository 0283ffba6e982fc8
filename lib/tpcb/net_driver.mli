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
