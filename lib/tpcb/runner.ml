(** Experiment runner: executes the TPC-B workload against either engine
    and reports the figures the paper reports — average response time over
    the trailing (steady-state) half of the run, bytes written per
    transaction, and final database size. *)

type result = {
  label : string;
  txns : int;
  avg_ms : float; (* cpu + simulated I/O *)
  p95_ms : float;
  cpu_avg_ms : float;
  io_avg_ms : float;
  bytes_per_txn : float; (* steady-state *)
  store_writes_per_txn : float; (* store write calls; a vectored flush counts once *)
  store_bytes_per_txn : float; (* same accounting window as store_writes_per_txn *)
  fg_checkpoints : int; (* TDB only: checkpoints run inside measured txns *)
  db_size : int; (* final on-disk footprint, bytes *)
  live_bytes : int; (* TDB only: live data *)
  minor_words_per_txn : float; (* minor-heap words allocated per measured txn *)
  cache_hits : int; (* TDB only: verified-chunk cache *)
  cache_misses : int;
}

let hit_rate (r : result) : float =
  let n = r.cache_hits + r.cache_misses in
  if n = 0 then 0.0 else float_of_int r.cache_hits /. float_of_int n

let percentile (samples : float array) (p : float) : float =
  if Array.length samples = 0 then 0.0
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    sorted.(min (Array.length sorted - 1) (int_of_float (p *. float_of_int (Array.length sorted))))
  end

let mean (samples : float array) : float =
  if Array.length samples = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)

(** Drive [txn] for [scale.transactions] inputs; measure the trailing
    [scale.measured]. [sim_time] reads the simulated-I/O clock; [bytes]
    reads cumulative bytes written; [writes] reads cumulative store write
    calls and [checkpoints] the store's checkpoints (same foreground-only
    accounting window). The engine's own fields (label, sizes, cache
    counts) are left to the caller. *)
let drive ?idle_every ?(idle : (unit -> unit) option) ?(checkpoints = fun () -> 0) (scale : Workload.scale)
    ~(seed : string) ~(txn : Workload.txn_input -> unit) ~(sim_time : unit -> float) ~(bytes : unit -> int)
    ~(writes : unit -> int) : result =
  let rng = Tdb_crypto.Drbg.create ~seed in
  let n = scale.Workload.transactions in
  let measured = min n scale.Workload.measured in
  let warmup = n - measured in
  let total = Array.make measured 0.0 in
  let cpu = Array.make measured 0.0 in
  let io = Array.make measured 0.0 in
  let fg_bytes = ref 0 in
  let fg_writes = ref 0 in
  let fg_checkpoints = ref 0 in
  let minor = ref 0.0 in
  for i = 0 to n - 1 do
    (* DRM workloads are "short sequences of transactions separated by long
       idle periods" (paper Section 1); with [idle_every], maintenance runs
       between bursts and neither its time nor its writes are charged to
       any transaction *)
    (match (idle_every, idle) with
    | Some k, Some f when i > 0 && i mod k = 0 -> f ()
    | _ -> ());
    let input = Workload.gen_txn rng scale in
    let c0 = checkpoints () in
    let t0 = Unix.gettimeofday () and s0 = sim_time () and b0 = bytes () and w0 = writes () in
    (* minor words repeat run to run; major allocations and promotions
       follow GC pacing *)
    let m0 = Gc.minor_words () in
    txn input;
    let t1 = Unix.gettimeofday () and s1 = sim_time () in
    let m1 = Gc.minor_words () in
    if i >= warmup then begin
      let j = i - warmup in
      cpu.(j) <- t1 -. t0;
      io.(j) <- s1 -. s0;
      total.(j) <- (t1 -. t0) +. (s1 -. s0);
      fg_bytes := !fg_bytes + (bytes () - b0);
      fg_writes := !fg_writes + (writes () - w0);
      fg_checkpoints := !fg_checkpoints + (checkpoints () - c0);
      minor := !minor +. (m1 -. m0)
    end
  done;
  let per_txn x = x /. float_of_int measured in
  {
    label = "";
    txns = measured;
    avg_ms = 1000. *. mean total;
    p95_ms = 1000. *. percentile total 0.95;
    cpu_avg_ms = 1000. *. mean cpu;
    io_avg_ms = 1000. *. mean io;
    bytes_per_txn = per_txn (float_of_int !fg_bytes);
    store_writes_per_txn = per_txn (float_of_int !fg_writes);
    store_bytes_per_txn = per_txn (float_of_int !fg_bytes);
    fg_checkpoints = !fg_checkpoints;
    db_size = 0;
    live_bytes = 0;
    minor_words_per_txn = per_txn !minor;
    cache_hits = 0;
    cache_misses = 0;
  }

let run_tdb ?(security = true) ?(max_utilization = 0.6) ?model ?idle_every (scale : Workload.scale) : result =
  let t = Tdb_driver.setup ~security ~max_utilization ?model scale in
  let r =
    drive ?idle_every ~idle:(fun () -> Tdb_driver.idle_clean t)
      ~checkpoints:(fun () -> (Tdb_driver.stats t).Tdb_chunk.Chunk_store.checkpoints)
      scale ~seed:"tpcb-run"
      ~txn:(fun input -> ignore (Tdb_driver.txn t input))
      ~sim_time:(fun () -> Tdb_driver.sim_time t)
      ~bytes:(fun () -> Tdb_driver.bytes_written t)
      ~writes:(fun () -> Tdb_driver.store_writes t)
  in
  let st = Tdb_driver.stats t in
  { r with
    label = (if security then "TDB-S" else "TDB");
    db_size = Tdb_driver.db_size t;
    live_bytes = Tdb_driver.live_bytes t;
    cache_hits = st.Tdb_chunk.Chunk_store.cache_hits;
    cache_misses = st.Tdb_chunk.Chunk_store.cache_misses }

let run_bdb ?model (scale : Workload.scale) : result =
  let t = Bdb_driver.setup ?model scale in
  let r =
    drive scale ~seed:"tpcb-run"
      ~txn:(fun input -> ignore (Bdb_driver.txn t input))
      ~sim_time:(fun () -> Bdb_driver.sim_time t)
      ~bytes:(fun () -> Bdb_driver.bytes_written t)
      ~writes:(fun () -> Bdb_driver.store_writes t)
  in
  { r with label = "BerkeleyDB"; db_size = Bdb_driver.db_size t }

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "%-12s avg %6.2f ms  (cpu %5.2f + io %5.2f)  p95 %6.2f ms  %7.0f B/txn  %5.1f w/txn  db %6.2f MB"
    r.label r.avg_ms r.cpu_avg_ms r.io_avg_ms r.p95_ms r.bytes_per_txn r.store_writes_per_txn
    (float_of_int r.db_size /. 1048576.);
  if r.cache_hits + r.cache_misses > 0 then
    Format.fprintf ppf "  cache %.0f%%" (100. *. hit_rate r)
