(** Metering workload: the DRM traffic shape the paper motivates TDB with
    (Section 1) — a large population of tiny usage meters, updated with a
    Zipf-skewed hot head and a long cold tail, on a database far larger
    than the chunk-cache budget. Unlike TPC-B (uniform over four mid-size
    tables), this is the workload where single-population log cleaning
    recopies cold data over and over; it exists to measure cleaner write
    amplification as a function of skew (alpha).

    The driver talks straight to the chunk store (one meter = one tiny
    chunk): no collection/index layer, so bytes relocated by the cleaner
    are the only write overhead besides the meters themselves and the
    location map. *)

open Tdb_platform
open Tdb_chunk

type scale = {
  meters : int;  (** population of tiny meter objects *)
  updates : int;  (** total meter updates to run *)
  batch : int;  (** meter updates per commit *)
  cache_bytes : int;  (** chunk-cache budget; DB size is many times this *)
}

let default_scale = { meters = 50_000; updates = 300_000; batch = 16; cache_bytes = 256 * 1024 }
let quick_scale = { meters = 5_000; updates = 15_000; batch = 16; cache_bytes = 32 * 1024 }

(* --- Zipf(alpha) sampler over ranks 0..n-1 ------------------------- *)

(** Cumulative Zipf distribution; [alpha = 0] degenerates to uniform. *)
type zipf = { cum : float array }

let zipf ~(alpha : float) (n : int) : zipf =
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** alpha));
    cum.(i) <- !acc
  done;
  let total = !acc in
  Array.iteri (fun i v -> cum.(i) <- v /. total) cum;
  { cum }

let sample (z : zipf) (rng : Tdb_crypto.Drbg.t) : int =
  let u = float_of_int (Tdb_crypto.Drbg.int rng 1_000_000_000) /. 1e9 in
  (* first rank whose cumulative mass covers u *)
  let lo = ref 0 and hi = ref (Array.length z.cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cum.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* --- meter payloads ------------------------------------------------ *)

(** Tiny fixed-size payload: meter id, a use count and a timestamp-like
    value — the shape of a usage-metering record. *)
let meter_payload ~(id : int) ~(count : int) : string =
  let module P = Tdb_pickle.Pickle in
  let w = P.writer () in
  P.int32_fixed w id;
  P.int64 w (Int64.of_int count);
  P.int64 w (Int64.of_int (id * 7 + count));
  P.contents w

(* --- results ------------------------------------------------------- *)

type result = {
  m_alpha : float;
  m_meters : int;
  m_updates : int;
  m_write_amp : float;
      (** cleaner bytes relocated / meter bytes committed, both counted
          over the update phase only (the bulk load is excluded) *)
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

(** Run the metering workload. The cipher class matches the TPC-B bench
    (paper Section 7.3: Triple-XTEA + SHA-1) at 75% max utilization —
    space pressure high enough that cleaner policy, not raw growth, sets
    the write bill. *)
let run ?(security = true) ~(alpha : float) (s : scale) : result =
  let clock = Sim_disk.clock () in
  let store = Sim_disk.wrap_store Sim_disk.paper_platform clock (snd (Untrusted_store.open_mem ())) in
  let counter = Sim_disk.wrap_counter Sim_disk.paper_platform clock (snd (One_way_counter.open_mem ())) in
  let secret = Secret_store.of_seed "meter-device" in
  let config =
    { Config.default with Config.security; max_utilization = 0.75;
      checkpoint_every = 100_000; checkpoint_residual_bytes = max (384 * 1024) (4 * s.cache_bytes);
      chunk_cache_bytes = s.cache_bytes; cipher = Config.Triple_xtea; hash = Config.Sha1 }
  in
  let cs = Chunk_store.create ~config ~secret ~counter store in
  (* Bulk-load the meter population (nondurable batches, like the TPC-B
     load), then checkpoint into a settled state. *)
  let cids = Array.make s.meters 0 in
  let loaded = ref 0 in
  while !loaded < s.meters do
    let upto = min s.meters (!loaded + 2_000) in
    for id = !loaded to upto - 1 do
      let cid = Chunk_store.allocate cs in
      cids.(id) <- cid;
      Chunk_store.write cs cid (meter_payload ~id ~count:0)
    done;
    Chunk_store.commit ~durable:false cs;
    loaded := upto
  done;
  Chunk_store.checkpoint cs;
  (* Hot ranks must not map to adjacent meter ids: a deterministic shuffle
     scatters the Zipf head across the load-order segments, the realistic
     hard case for the cleaner. *)
  let rng = Tdb_crypto.Drbg.create ~seed:(Printf.sprintf "meter-%f" alpha) in
  let rank_to_id = Array.init s.meters Fun.id in
  for i = s.meters - 1 downto 1 do
    let j = Tdb_crypto.Drbg.int rng (i + 1) in
    let tmp = rank_to_id.(i) in
    rank_to_id.(i) <- rank_to_id.(j);
    rank_to_id.(j) <- tmp
  done;
  let z = zipf ~alpha s.meters in
  let counts = Array.make s.meters 0 in
  (* baseline after load: write amplification measures the update phase *)
  let st0 = Chunk_store.stats cs in
  let data0 = st0.Chunk_store.bytes_data and rel0 = st0.Chunk_store.bytes_relocated in
  let io0 = clock.Sim_disk.elapsed in
  let t0 = Unix.gettimeofday () in
  let done_ = ref 0 and batch_no = ref 0 in
  while !done_ < s.updates do
    let upto = min s.updates (!done_ + s.batch) in
    for _ = !done_ to upto - 1 do
      let id = rank_to_id.(sample z rng) in
      (* read-modify-write, like a real meter bump: the read is what makes
         the chunk-cache budget (DB many times larger) visible in the hit
         rate — hot meters hit, the cold tail misses *)
      ignore (Chunk_store.read cs cids.(id));
      counts.(id) <- counts.(id) + 1;
      Chunk_store.write cs cids.(id) (meter_payload ~id ~count:counts.(id))
    done;
    incr batch_no;
    (* mostly-nondurable metering bursts with a periodic durable point *)
    Chunk_store.commit ~durable:(!batch_no mod 16 = 0) cs;
    done_ := upto
  done;
  Chunk_store.checkpoint cs;
  let cpu_s = Unix.gettimeofday () -. t0 in
  let st = Chunk_store.stats cs in
  let relocated = st.Chunk_store.bytes_relocated - rel0 in
  (* [bytes_data] counts cleaner relocations too (they ride the same
     append path), so committed fresh bytes are the difference *)
  let committed = max 1 (st.Chunk_store.bytes_data - data0 - relocated) in
  let hits = st.Chunk_store.cache_hits and misses = st.Chunk_store.cache_misses in
  {
    m_alpha = alpha;
    m_meters = s.meters;
    m_updates = s.updates;
    m_write_amp = float_of_int relocated /. float_of_int committed;
    m_bytes_relocated = relocated;
    m_bytes_committed = committed;
    m_clean_passes = st.Chunk_store.clean_passes;
    m_segments_cleaned = st.Chunk_store.segments_cleaned;
    m_chunks_relocated = st.Chunk_store.chunks_relocated;
    m_live_segments = st.Chunk_store.live_segments;
    m_db_size = Chunk_store.store_size cs;
    m_live_bytes = Chunk_store.live_bytes cs;
    m_cache_hit_rate =
      (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses));
    m_cpu_s = cpu_s;
    m_io_s = clock.Sim_disk.elapsed -. io0;
  }

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "alpha %.1f  write-amp %5.2f  (%7.2f MB relocated / %6.2f MB committed)  %3d passes  db %6.2f MB  cache %.0f%%  %d live segments"
    r.m_alpha r.m_write_amp
    (float_of_int r.m_bytes_relocated /. 1048576.)
    (float_of_int r.m_bytes_committed /. 1048576.)
    r.m_clean_passes
    (float_of_int r.m_db_size /. 1048576.)
    (100. *. r.m_cache_hit_rate)
    r.m_live_segments
