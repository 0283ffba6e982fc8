(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (Sections 6-7), plus micro-benchmarks and ablations.

    - [footprint]   Figure 8 (code footprint table)
    - [tpcb]        Figure 9 (schema table) + Figure 10 (response times)
    - [utilization] Figure 11 (response time & database size vs utilization)
    - [micro]       Bechamel micro-benchmarks (crypto, chunk and object ops)
    - [ablation]    design-choice ablations (idle cleaning, security)
    - [all]         everything above at the default scale

    Absolute times come from measured CPU plus the calibrated disk model
    (see {!Tdb_tpcb.Sim_disk}); the paper's numbers are printed alongside
    every result. *)

open Tdb_tpcb

let pick_scale = function
  | "quick" -> Workload.quick_scale
  | "default" -> Workload.default_scale
  | "paper" -> Workload.paper_scale
  | s -> invalid_arg (Printf.sprintf "unknown scale %S (quick|default|paper)" s)

(* ------------------------------------------------------------------ *)
(* Machine-readable output (--json): the perf trajectory artifacts      *)
(* ------------------------------------------------------------------ *)

module J = Tdb_bench.Bench_json

(* BENCH_<BENCH>.json, its rows built from the bench's own records *)
let write_json bench members =
  let path = "BENCH_" ^ String.uppercase_ascii bench ^ ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc (J.document (J.Obj (("bench", J.Str bench) :: members))));
  Printf.printf "wrote %s\n%!" path

let num digits x = J.Num (x, digits)
let ints l = J.Arr (List.map (fun i -> J.Int i) l)
let ops_per_s (r : Runner.result) = if r.avg_ms > 0. then 1000. /. r.avg_ms else 0.

(* Every field a TPC-B run reports, in file order. *)
let tpcb_row (r : Runner.result) =
  J.Obj
    [ ("label", J.Str r.label); ("txns", J.Int r.txns); ("avg_ms", num 4 r.avg_ms); ("p95_ms", num 4 r.p95_ms);
      ("cpu_avg_ms", num 4 r.cpu_avg_ms); ("io_avg_ms", num 4 r.io_avg_ms); ("ops_per_s", num 1 (ops_per_s r));
      ("bytes_per_txn", num 1 r.bytes_per_txn); ("store_writes_per_txn", num 2 r.store_writes_per_txn);
      ("store_bytes_per_txn", num 1 r.store_bytes_per_txn); ("db_size", J.Int r.db_size);
      ("live_bytes", J.Int r.live_bytes); ("minor_words_per_txn", num 0 r.minor_words_per_txn);
      ("cache_hits", J.Int r.cache_hits); ("cache_misses", J.Int r.cache_misses);
      ("cache_hit_rate", num 4 (Runner.hit_rate r)) ]

(* ------------------------------------------------------------------ *)
(* Figure 9 + Figure 10                                                *)
(* ------------------------------------------------------------------ *)

let figure9 (scale : Workload.scale) =
  Printf.printf "== Figure 9: TPC-B tables and sizes ==\n\n";
  Printf.printf "%-12s %10s %10s\n" "Collection" "this run" "paper";
  Printf.printf "%-12s %10d %10d\n" "Account" scale.Workload.accounts 100_000;
  Printf.printf "%-12s %10d %10d\n" "Teller" scale.Workload.tellers 1_000;
  Printf.printf "%-12s %10d %10d\n" "Branch" scale.Workload.branches 100;
  Printf.printf "%-12s %10d %10d  (grows during the run)\n" "History" scale.Workload.transactions 252_000;
  Printf.printf "(transactions: %d, measured: trailing %d, cache: %d KB)\n\n" scale.Workload.transactions
    scale.Workload.measured
    (scale.Workload.cache_bytes / 1024)

let figure10 ?(idle = true) (scale : Workload.scale) : Runner.result list =
  figure9 scale;
  Printf.printf "== Figure 10: average response time per TPC-B transaction ==\n\n";
  let idle_every = if idle then Some 500 else None in
  let progress label r =
    Printf.printf "  [done] %s\n%!" (Format.asprintf "%a" Runner.pp_result r);
    ignore label;
    r
  in
  let bdb = progress "bdb" (Runner.run_bdb scale) in
  let tdb = progress "tdb" (Runner.run_tdb ~security:false ?idle_every scale) in
  let tdbs = progress "tdbs" (Runner.run_tdb ~security:true ?idle_every scale) in
  Printf.printf "%-12s %12s %12s %10s %12s %12s\n" "system" "avg ms" "paper ms" "ratio" "B/txn" "paper B/txn";
  Printf.printf "%-12s %12.2f %12.1f %10s %12.0f %12s\n" "BerkeleyDB" bdb.Runner.avg_ms 6.8 "1.00"
    bdb.Runner.bytes_per_txn "~1100";
  Printf.printf "%-12s %12.2f %12.1f %10.2f %12.0f %12s\n" "TDB" tdb.Runner.avg_ms 3.8
    (tdb.Runner.avg_ms /. bdb.Runner.avg_ms) tdb.Runner.bytes_per_txn "~523";
  Printf.printf "%-12s %12.2f %12.1f %10.2f %12.0f %12s\n" "TDB-S" tdbs.Runner.avg_ms 5.8
    (tdbs.Runner.avg_ms /. bdb.Runner.avg_ms) tdbs.Runner.bytes_per_txn "-";
  Printf.printf "\npaper ratios: TDB/BDB = 0.56, TDB-S/BDB = 0.85%s\n"
    (if idle then "  (run includes idle-period maintenance every 500 txns, as DRM workloads have)"
     else "  (no idle periods: cleaning competes with transactions)");
  Printf.printf "detail: %s\n        %s\n        %s\n\n"
    (Format.asprintf "%a" Runner.pp_result bdb)
    (Format.asprintf "%a" Runner.pp_result tdb)
    (Format.asprintf "%a" Runner.pp_result tdbs);
  [ bdb; tdb; tdbs ]

(* ------------------------------------------------------------------ *)
(* Figure 11                                                           *)
(* ------------------------------------------------------------------ *)

let figure11 (scale : Workload.scale) =
  Printf.printf "== Figure 11: TDB performance and database size vs utilization ==\n\n";
  let bdb = Runner.run_bdb scale in
  Printf.printf "%-12s %12s %14s %14s\n" "max util" "avg ms" "db size MB" "live MB";
  let results =
    List.map
      (fun u ->
        let r = Runner.run_tdb ~security:false ~max_utilization:u scale in
        Printf.printf "%-12.2f %12.2f %14.2f %14.2f\n%!" u r.Runner.avg_ms
          (float_of_int r.Runner.db_size /. 1048576.)
          (float_of_int r.Runner.live_bytes /. 1048576.);
        (u, r))
      [ 0.5; 0.6; 0.7; 0.8; 0.9 ]
  in
  Printf.printf "%-12s %12.2f %14.2f %14s  (no log checkpointing, as in the paper)\n" "BerkeleyDB"
    bdb.Runner.avg_ms
    (float_of_int bdb.Runner.db_size /. 1048576.)
    "-";
  let first, last =
    match (results, List.rev results) with
    | (_, f) :: _, (_, l) :: _ -> (f, l)
    | _ -> failwith "utilization sweep returned no results"
  in
  Printf.printf "\nshape: response flat early then climbing (%.2f -> %.2f ms); paper: ~3.7 -> ~6.5 ms\n"
    first.Runner.avg_ms last.Runner.avg_ms;
  Printf.printf "shape: database size decreases with utilization (%.2f -> %.2f MB); BDB far larger (%.2f MB)\n\n"
    (float_of_int first.Runner.db_size /. 1048576.)
    (float_of_int last.Runner.db_size /. 1048576.)
    (float_of_int bdb.Runner.db_size /. 1048576.)

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                         *)
(* ------------------------------------------------------------------ *)

(* The object the object-open rows open: one int. *)
let bench_cls : int Tdb.Obj_class.t =
  Tdb.Obj_class.define ~name:"bench.int"
    ~pickle:(fun w i -> Tdb.Pickle.int w i)
    ~unpickle:(fun ~version:_ r -> Tdb.Pickle.read_int r)
    ()

let object_opens = 18

let micro () : (string * float) list =
  let open Bechamel in
  let open Toolkit in
  Printf.printf "== Micro-benchmarks (Bechamel) ==\n\n";
  let data_1k = String.make 1024 'x' in
  let aes_key = Tdb_crypto.Aes.of_secret (String.make 16 'k') in
  let aes3_key = Tdb_crypto.Triple.Aes3.of_secret (String.make 48 'k') in
  let xtea3_key = Tdb_crypto.Triple.Xtea3.of_secret (String.make 48 'k') in
  let block16 = Bytes.make 16 'p' in
  let block8 = Bytes.make 8 'p' in
  let cbc = Tdb_crypto.Cbc.make (module Tdb_crypto.Aes) ~secret:(String.make 16 's') in
  let sealed = Tdb_crypto.Cbc.encrypt cbc ~iv:(String.make 16 'i') data_1k in
  (* the default chunk cipher, Triple-AES, over a 1 KiB payload *)
  let cbc3 = Tdb_crypto.Cbc.make (module Tdb_crypto.Triple.Aes3) ~secret:(String.make 48 's') in
  let sealed3 = Tdb_crypto.Cbc.encrypt cbc3 ~iv:(String.make 16 'i') data_1k in
  (* a Merkle label's input: about an average sealed TPC-B record *)
  let data_128 = String.make 128 'x' in
  let _, store = Tdb_platform.Untrusted_store.open_mem () in
  let _, counter = Tdb_platform.One_way_counter.open_mem () in
  let cs =
    Tdb_chunk.Chunk_store.create ~secret:(Tdb_platform.Secret_store.of_seed "bench") ~counter store
  in
  let cid = Tdb_chunk.Chunk_store.allocate cs in
  Tdb_chunk.Chunk_store.write cs cid data_1k;
  Tdb_chunk.Chunk_store.commit cs;
  (* same store shape with the verified-chunk cache disabled: the cold
     read path (fetch + decrypt + hash check) for comparison *)
  let _, store0 = Tdb_platform.Untrusted_store.open_mem () in
  let _, counter0 = Tdb_platform.One_way_counter.open_mem () in
  let cs0 =
    Tdb_chunk.Chunk_store.create
      ~config:{ Tdb_chunk.Config.default with Tdb_chunk.Config.chunk_cache_bytes = 0 }
      ~secret:(Tdb_platform.Secret_store.of_seed "bench") ~counter:counter0 store0
  in
  let cid0 = Tdb_chunk.Chunk_store.allocate cs0 in
  Tdb_chunk.Chunk_store.write cs0 cid0 data_1k;
  Tdb_chunk.Chunk_store.commit cs0;
  (* one nondurable commit of 32 rewritten 1 KiB chunks, on a store of
     its own with the cache disabled *)
  let batch_commit =
    let _, st = Tdb_platform.Untrusted_store.open_mem () in
    let _, ct = Tdb_platform.One_way_counter.open_mem () in
    let cs =
      Tdb_chunk.Chunk_store.create
        ~config:{ Tdb_chunk.Config.default with Tdb_chunk.Config.chunk_cache_bytes = 0 }
        ~secret:(Tdb_platform.Secret_store.of_seed "bench") ~counter:ct st
    in
    let ids = Array.init 32 (fun _ -> Tdb_chunk.Chunk_store.allocate cs) in
    fun () ->
      Array.iter (fun id -> Tdb_chunk.Chunk_store.write cs id data_1k) ids;
      Tdb_chunk.Chunk_store.commit ~durable:false cs
  in
  batch_commit ();
  let mac_key = Tdb_crypto.Hmac.precompute (module Tdb_crypto.Sha256) ~key:"k" in
  (* the per-seal IV draw alone, under the default cipher *)
  let iv_sec =
    let secret = Tdb_platform.Secret_store.of_seed "bench" in
    let sec = Tdb_chunk.Security.create Tdb_chunk.Config.default secret in
    Tdb_chunk.Security.start_session sec secret ~counter:0L ~epoch:1;
    sec
  in
  (* the one-way counter's two-slot emulation over an in-memory store: one
     bump per durable commit *)
  let owc = Tdb_platform.One_way_counter.open_store (snd (Tdb_platform.Untrusted_store.open_mem ())) in
  (* a cache at its budget whose oldest 2 000 entries are pinned: a put
     over budget walks from the oldest end *)
  let pinned_lru =
    let c = Tdb_chunk.Lru.create ~budget:2000 in
    for k = 1 to 2000 do
      Tdb_chunk.Lru.pin (Tdb_chunk.Lru.put c k () ~size:1)
    done;
    c
  in
  (* a cache of 5 000 entries under its budget: a run finds the next key,
     cycling through all of them *)
  let hit_lru, hit_key =
    let c = Tdb_chunk.Lru.create ~budget:5000 in
    for k = 0 to 4999 do
      ignore (Tdb_chunk.Lru.put c k () ~size:1)
    done;
    (c, ref 0)
  in
  (* a churned store under the default cipher (Triple-AES), closed once:
     every clean-pass run opens its own copy of that image, so each run
     cleans the same four fragmented segments *)
  let churned_mem, churned_counter =
    let mem, st = Tdb_platform.Untrusted_store.open_mem () in
    let _, ct = Tdb_platform.One_way_counter.open_mem () in
    let cs = Tdb_chunk.Chunk_store.create ~secret:(Tdb_platform.Secret_store.of_seed "bench") ~counter:ct st in
    let ids = Array.init 2000 (fun _ -> Tdb_chunk.Chunk_store.allocate cs) in
    for round = 0 to 5 do
      Array.iteri
        (fun i id ->
          if round = 0 || (i + round) mod 3 = 0 then
            Tdb_chunk.Chunk_store.write cs id (Printf.sprintf "%d/%d:%s" i round (String.make (100 + (i mod 200)) 'c'));
          if i mod 50 = 49 then Tdb_chunk.Chunk_store.commit cs)
        ids
    done;
    Tdb_chunk.Chunk_store.close cs;
    (mem, Tdb_platform.One_way_counter.read ct)
  in
  (* an object store whose cache holds 18 committed objects (a [lookup]
     op's worth of opens): [open_objects] opens each read-only in a fresh
     transaction and commits it read-only; [reopen] re-opens an object
     that a transaction left open already holds *)
  let os, objects =
    let _, st = Tdb_platform.Untrusted_store.open_mem () in
    let _, ct = Tdb_platform.One_way_counter.open_mem () in
    let os =
      Tdb.Object_store.of_shard_store
        (Tdb_chunk.Chunk_store.create ~secret:(Tdb_platform.Secret_store.of_seed "bench") ~counter:ct st)
    in
    let oids = Tdb.Object_store.with_txn os (fun x -> Array.init object_opens (fun i -> Tdb.Object_store.insert x bench_cls i)) in
    (os, oids)
  in
  let open_objects () =
    let x = Tdb.Object_store.begin_ os in
    Array.iter (fun oid -> ignore (Tdb.Object_store.open_readonly x bench_cls oid)) objects;
    Tdb.Object_store.commit ~durable:false x
  in
  open_objects ();
  let held = Tdb.Object_store.begin_ os in
  let reopen () = ignore (Tdb.Object_store.open_readonly held bench_cls objects.(0)) in
  reopen ();
  (* two int keys' canonical bytes (two-byte varints) and their comparator *)
  let key_cmp = Tdb.Gkey.bytes_compare Tdb.Gkey.int in
  let key_a = Tdb.Gkey.to_bytes Tdb.Gkey.int 1234 and key_b = Tdb.Gkey.to_bytes Tdb.Gkey.int 1235 in
  (* a collection of 5 000 ints on one B-tree index, eight to an owner
     ([v / 8]): a run is one owner's range in a read-only transaction,
     cycling through the 625 owners. Built when its row runs: its live heap
     would slow the GC under the rows before it. *)
  let range8 () =
    let _, st = Tdb_platform.Untrusted_store.open_mem () in
    let _, ct = Tdb_platform.One_way_counter.open_mem () in
    let os =
      Tdb.Object_store.of_shard_store
        (Tdb_chunk.Chunk_store.create ~secret:(Tdb_platform.Secret_store.of_seed "bench") ~counter:ct st)
    in
    let owner_ix = Tdb.Indexer.make ~name:"owner" ~key:Tdb.Gkey.int ~extract:(fun v -> v / 8) () in
    let coll =
      Tdb.Cstore.with_ctxn os (fun ct ->
          let c = Tdb.Cstore.create_collection ct ~name:"range8" ~schema:bench_cls owner_ix in
          for v = 0 to 4_999 do
            ignore (Tdb.Cstore.insert ct c v)
          done;
          c)
    in
    let owner = ref 0 in
    let run () =
      owner := (!owner + 1) mod 625;
      let ct = Tdb.Cstore.begin_ os in
      let it = Tdb.Cstore.range ct coll owner_ix ~min:(Some !owner) ~max:(Some !owner) in
      Tdb.Cstore.close it;
      Tdb.Cstore.commit ~durable:false ct
    in
    run ();
    run
  in
  let open_churned () =
    let _, st = Tdb_platform.Untrusted_store.Mem.clone churned_mem in
    let _, ct = Tdb_platform.One_way_counter.open_mem ~initial:churned_counter () in
    Tdb_chunk.Chunk_store.open_existing ~secret:(Tdb_platform.Secret_store.of_seed "bench") ~counter:ct st
  in
  let tests =
    [
      Test.make ~name:"sha1/1KiB" (Staged.stage (fun () -> Tdb_crypto.Sha1.digest data_1k));
      Test.make ~name:"sha1/128B" (Staged.stage (fun () -> Tdb_crypto.Sha1.digest data_128));
      Test.make ~name:"sha256/1KiB" (Staged.stage (fun () -> Tdb_crypto.Sha256.digest data_1k));
      Test.make ~name:"hmac-sha256/1KiB" (Staged.stage (fun () -> Tdb_crypto.Hmac.sha256 ~key:"k" data_1k));
      Test.make ~name:"hmac-sha256-pre/1KiB" (Staged.stage (fun () -> Tdb_crypto.Hmac.mac mac_key data_1k));
      Test.make ~name:"aes128/block"
        (Staged.stage (fun () ->
             Tdb_crypto.Aes.encrypt_block aes_key ~src:block16 ~src_off:0 ~dst:block16 ~dst_off:0));
      Test.make ~name:"3aes/block"
        (Staged.stage (fun () ->
             Tdb_crypto.Triple.Aes3.encrypt_block aes3_key ~src:block16 ~src_off:0 ~dst:block16 ~dst_off:0));
      Test.make ~name:"3xtea/block"
        (Staged.stage (fun () ->
             Tdb_crypto.Triple.Xtea3.encrypt_block xtea3_key ~src:block8 ~src_off:0 ~dst:block8 ~dst_off:0));
      Test.make ~name:"cbc-aes-encrypt/1KiB"
        (Staged.stage (fun () -> Tdb_crypto.Cbc.encrypt cbc ~iv:(String.make 16 'i') data_1k));
      Test.make ~name:"cbc-aes-decrypt/1KiB" (Staged.stage (fun () -> Tdb_crypto.Cbc.decrypt cbc sealed));
      Test.make ~name:"3aes-cbc-encrypt/1KiB"
        (Staged.stage (fun () -> Tdb_crypto.Cbc.encrypt cbc3 ~iv:(String.make 16 'i') data_1k));
      Test.make ~name:"3aes-cbc-decrypt/1KiB" (Staged.stage (fun () -> Tdb_crypto.Cbc.decrypt cbc3 sealed3));
      Test.make ~name:"iv-draw" (Staged.stage (fun () -> Tdb_chunk.Security.draw_iv iv_sec));
      Test.make ~name:"owc-increment" (Staged.stage (fun () -> Tdb_platform.One_way_counter.increment owc));
      Test.make ~name:"chunk-read/1KiB" (Staged.stage (fun () -> Tdb_chunk.Chunk_store.read cs cid));
      Test.make ~name:"chunk-read-nocache/1KiB" (Staged.stage (fun () -> Tdb_chunk.Chunk_store.read cs0 cid0));
      Test.make ~name:"chunk-write+commit/1KiB"
        (Staged.stage (fun () ->
             Tdb_chunk.Chunk_store.write cs cid data_1k;
             Tdb_chunk.Chunk_store.commit ~durable:false cs));
      Test.make ~name:"commit-batch32x1KiB/d1" (Staged.stage batch_commit);
      Test.make_with_resource ~name:"clean-pass" Test.multiple ~allocate:open_churned ~free:ignore
        (Staged.stage (fun cs -> Tdb_chunk.Chunk_store.clean ~max_segments:4 cs));
      Test.make ~name:"lru/put-behind-2000-pins"
        (Staged.stage (fun () ->
             ignore (Tdb_chunk.Lru.put pinned_lru 0 () ~size:1);
             Tdb_chunk.Lru.remove pinned_lru 0));
      Test.make ~name:"lru-hit"
        (Staged.stage (fun () ->
             hit_key := (!hit_key + 1) mod 5000;
             Tdb_chunk.Lru.find hit_lru !hit_key));
      Test.make ~name:"object-open" (Staged.stage open_objects);
      Test.make ~name:"object-reopen" (Staged.stage reopen);
      Test.make ~name:"key-compare-int" (Staged.stage (fun () -> key_cmp key_a key_b));
      Test.make_with_resource ~name:"btree-range8" Test.uniq ~allocate:range8 ~free:ignore
        (Staged.stage (fun run -> run ()));
    ]
  in
  (* a row that times several operations per run reports one of them *)
  let per_run = function "tdb/object-open" -> float_of_int object_opens | _ -> 1. in
  let run test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 256) () in
    let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"tdb" [ test ]) in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        Instance.monotonic_clock raw
    in
    Hashtbl.fold
      (fun name est acc ->
        let v = match Analyze.OLS.estimates est with Some [ x ] -> x /. per_run name | _ -> nan in
        Printf.printf "%-32s %12.0f ns/op\n%!" name v;
        (name, v) :: acc)
      ols []
  in
  let results = List.concat_map run tests in
  Tdb.Object_store.abort held;
  Printf.printf
    "\n(compare the block-cipher costs against the ~3.5 ms log force that\n\
     dominates a transaction: crypto CPU is a small fraction, matching the\n\
     paper's < 10%% claim)\n\n";
  results

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation (scale : Workload.scale) =
  Printf.printf "== Ablations (design choices called out in DESIGN.md) ==\n\n";
  let with_idle = Runner.run_tdb ~security:true ~idle_every:500 scale in
  let without = Runner.run_tdb ~security:true scale in
  Printf.printf "idle-period maintenance:  with %.2f ms/txn   without %.2f ms/txn\n" with_idle.Runner.avg_ms
    without.Runner.avg_ms;
  let plain = Runner.run_tdb ~security:false ~idle_every:500 scale in
  Printf.printf "security on/off:          TDB-S %.2f ms  vs TDB %.2f ms  (crypto + counter cost %.2f ms)\n\n"
    with_idle.Runner.avg_ms plain.Runner.avg_ms
    (with_idle.Runner.avg_ms -. plain.Runner.avg_ms)

(* ------------------------------------------------------------------ *)
(* Network service: throughput scaling vs clients under group commit   *)
(* ------------------------------------------------------------------ *)

let server_bench ?(txns_per_client = 50) ?(client_counts = [ 1; 2; 4; 8 ]) () =
  Printf.printf "== Network service: TPC-B throughput vs clients (group commit) ==\n\n";
  Printf.printf "(durable commit cost emulated: 2 ms log force + 1 ms counter bump;\n";
  Printf.printf " %d transactions per client; tables %d/%d/%d)\n\n" txns_per_client
    Net_driver.net_scale.Workload.accounts Net_driver.net_scale.Workload.tellers
    Net_driver.net_scale.Workload.branches;
  Printf.printf "%-8s %10s %10s %18s\n" "clients" "tps" "barriers" "commits/barrier";
  List.iter
    (fun clients ->
      let r = Net_driver.run ~clients ~txns_per_client () in
      if not r.Net_driver.balance_ok then failwith "server bench: balance invariant violated";
      Printf.printf "%-8d %10.0f %10d %18.2f\n%!" clients r.Net_driver.tps r.Net_driver.barriers
        (float_of_int r.Net_driver.durable_requests /. float_of_int (max 1 r.Net_driver.barriers)))
    client_counts;
  Printf.printf
    "\n(each durable commit requests durability; a shared barrier covers every\n\
    \ session that committed in its window — fewer log forces and one-way-counter\n\
    \ bumps than durable commits, so throughput scales with clients)\n\n"

(* ------------------------------------------------------------------ *)
(* Replication: follower lag and ingest rate vs emission interval      *)
(* ------------------------------------------------------------------ *)

type replica_row = {
  rr_interval : int;
  rr_txns : int;
  rr_backups : int;
  rr_stream_bytes : int;
  rr_avg_lag : float;  (* commits behind, sampled after every txn *)
  rr_max_lag : int;
  rr_tail_ms : float;  (* convergence tail after the last commit *)
  rr_ingest_mb_s : float;
}

let replica_one ~every ~accounts ~txns : replica_row =
  let seed = "bench-replica" in
  let _, pdev = Tdb.Device.in_memory ~seed () in
  let pdb = Tdb.create pdev in
  let psrv =
    Tdb.Server.create
      ~config:{ Tdb.Server.default_config with Tdb.Server.replica_every = every }
      ~backups:pdb.Tdb.backups pdb.Tdb.objects (Tdb.Server.Tcp ("127.0.0.1", 0))
  in
  Net_driver.expose_schema psrv;
  Tdb.Server.start psrv;
  let paddr = Tdb.Server.Tcp ("127.0.0.1", Tdb.Server.port psrv) in
  let _, fdev = Tdb.Device.in_memory ~seed () in
  let fdb = Tdb.create fdev in
  let rep =
    Tdb.Replica.start
      ~config:{ Tdb.Replica.poll = 0.01 }
      ~os:fdb.Tdb.objects ~backups:fdb.Tdb.backups ~from:paddr ()
  in
  let c = Tdb.Client.connect paddr in
  Fun.protect
    ~finally:(fun () ->
      Tdb.Client.close c;
      Tdb.Replica.stop rep;
      Tdb.Server.stop psrv)
    (fun () ->
      Tdb.Client.begin_ c;
      for id = 0 to accounts - 1 do
        ignore (Tdb.Client.coll_insert c ~coll:"account" Workload.account_cls (Workload.make_record ~id ~balance:0))
      done;
      Tdb.Client.commit ~durable:false c;
      let rng = Tdb_crypto.Drbg.create ~seed:"bench-replica-txn" in
      let lag_sum = ref 0 and lag_max = ref 0 in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to txns do
        Tdb.Client.begin_ c;
        ignore
          (Tdb.Client.coll_mutate c ~coll:"account" ~index:"id" ~mutation:"add" Tdb.Gkey.int
             (Tdb_crypto.Drbg.int rng accounts) Workload.account_cls
             ~arg:(fun w -> Tdb.Pickle.int w 7));
        Tdb.Client.commit ~durable:true c;
        let lag =
          max 0 (Tdb.Chunk_store.commit_seq pdb.Tdb.chunks - (Tdb.Replica.status rep).Tdb.Replica.applied_seq)
        in
        lag_sum := !lag_sum + lag;
        if lag > !lag_max then lag_max := lag
      done;
      let t_load = Unix.gettimeofday () in
      (* converged = the follower applied the primary's newest frame; the
         follower's last listing can predate the final emission, so its
         [primary_id] is not the target *)
      let newest = (Tdb.Backup_store.chain_state pdb.Tdb.backups).Tdb.Backup_store.last_id in
      while (Tdb.Replica.status rep).Tdb.Replica.applied_id < newest do
        if Unix.gettimeofday () -. t_load > 60. then failwith "replica bench: no convergence";
        Thread.delay 0.001
      done;
      let t_conv = Unix.gettimeofday () in
      let archive = pdev.Tdb.Device.archive in
      let stream_bytes =
        List.fold_left
          (fun acc name ->
            match Tdb.Archival_store.get archive ~name with Some s -> acc + String.length s | None -> acc)
          0
          (Tdb.Archival_store.list archive)
      in
      {
        rr_interval = every;
        rr_txns = txns;
        rr_backups = newest;
        rr_stream_bytes = stream_bytes;
        rr_avg_lag = float_of_int !lag_sum /. float_of_int txns;
        rr_max_lag = !lag_max;
        rr_tail_ms = (t_conv -. t_load) *. 1000.;
        rr_ingest_mb_s =
          (if t_conv -. t0 > 0. then float_of_int stream_bytes /. 1048576. /. (t_conv -. t0) else 0.);
      })

let replica_bench ?(json = false) () =
  Printf.printf "== Replication: follower lag and ingest rate vs emission interval ==\n\n";
  Printf.printf "(in-process primary server + follower over loopback TCP; %s)\n\n"
    "single-core hosts timeshare the follower with the primary — see EXPERIMENTS.md";
  let rows = List.map (fun every -> replica_one ~every ~accounts:64 ~txns:256) [ 1; 8; 32 ] in
  Printf.printf "%-10s %8s %9s %12s %12s %10s %14s %12s\n" "interval" "txns" "backups" "stream KB"
    "avg lag" "max lag" "tail conv ms" "ingest MB/s";
  List.iter
    (fun r ->
      Printf.printf "%-10d %8d %9d %12.1f %12.2f %10d %14.1f %12.2f\n" r.rr_interval r.rr_txns
        r.rr_backups
        (float_of_int r.rr_stream_bytes /. 1024.)
        r.rr_avg_lag r.rr_max_lag r.rr_tail_ms r.rr_ingest_mb_s)
    rows;
  Printf.printf
    "\n(lag is commits-behind sampled after every primary commit; small intervals\n\
    \ emit more, smaller frames — lower lag, more stream bytes per txn)\n\n";
  if json then
    let row r =
      J.Obj
        [ ("interval", J.Int r.rr_interval); ("txns", J.Int r.rr_txns); ("backups", J.Int r.rr_backups);
          ("stream_bytes", J.Int r.rr_stream_bytes); ("avg_lag_commits", num 3 r.rr_avg_lag);
          ("max_lag_commits", J.Int r.rr_max_lag); ("tail_converge_ms", num 2 r.rr_tail_ms);
          ("ingest_mb_per_s", num 3 r.rr_ingest_mb_s) ]
    in
    write_json "replica" [ ("intervals", ints (List.map (fun r -> r.rr_interval) rows)); ("rows", J.Arr (List.map row rows)) ]

(* ------------------------------------------------------------------ *)
(* Meter: cleaner write amplification vs Zipf skew                     *)
(* ------------------------------------------------------------------ *)

let pick_meter_scale = function
  | "quick" -> Meter.quick_scale
  | "default" | "paper" -> Meter.default_scale
  | s -> invalid_arg (Printf.sprintf "unknown scale %S (quick|default|paper)" s)

let meter_row (r : Meter.result) =
  J.Obj
    [ ("alpha", num 1 r.m_alpha); ("write_amp", num 4 r.m_write_amp); ("bytes_relocated", J.Int r.m_bytes_relocated);
      ("bytes_committed", J.Int r.m_bytes_committed); ("clean_passes", J.Int r.m_clean_passes);
      ("segments_cleaned", J.Int r.m_segments_cleaned); ("chunks_relocated", J.Int r.m_chunks_relocated);
      ("live_segments", J.Int r.m_live_segments); ("db_size", J.Int r.m_db_size); ("live_bytes", J.Int r.m_live_bytes);
      ("cache_hit_rate", num 4 r.m_cache_hit_rate); ("cpu_s", num 3 r.m_cpu_s); ("io_s", num 3 r.m_io_s) ]

let meter_bench ?(json = false) ~(scale_name : string) () =
  let s = pick_meter_scale scale_name in
  Printf.printf "== Meter: cleaner write amplification vs Zipf skew ==\n\n";
  Printf.printf
    "(%d tiny meters, %d Zipf(alpha) updates, chunk cache %d KB — DB many times the\n\
    \ cache; write amp = cleaner bytes relocated / meter bytes committed)\n\n"
    s.Meter.meters s.Meter.updates (s.Meter.cache_bytes / 1024);
  let rows =
    List.map
      (fun alpha ->
        let r = Meter.run ~alpha s in
        Printf.printf "  [done] %s\n%!" (Format.asprintf "%a" Meter.pp_result r);
        r)
      [ 0.0; 0.8; 1.2 ]
  in
  Printf.printf "\n%-8s %12s %14s %14s %10s\n" "alpha" "write amp" "relocated MB" "committed MB" "passes";
  List.iter
    (fun (r : Meter.result) ->
      Printf.printf "%-8.1f %12.2f %14.2f %14.2f %10d\n" r.Meter.m_alpha r.Meter.m_write_amp
        (float_of_int r.Meter.m_bytes_relocated /. 1048576.)
        (float_of_int r.Meter.m_bytes_committed /. 1048576.)
        r.Meter.m_clean_passes)
    rows;
  Printf.printf "\n";
  if json then
    write_json "meter"
      [ ( "scale",
          J.Obj
            [ ("name", J.Str scale_name); ("meters", J.Int s.meters); ("updates", J.Int s.updates);
              ("batch", J.Int s.batch); ("cache_bytes", J.Int s.cache_bytes) ] );
        ("alphas", J.Arr (List.map (fun (r : Meter.result) -> num 1 r.m_alpha) rows));
        ("rows", J.Arr (List.map meter_row rows)) ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  print_endline
    "usage: bench/main.exe [all|footprint|tpcb|utilization|micro|ablation|server|replica|meter] \
     [--scale quick|default|paper] [--no-idle] [--json]\n\
     \       bench/main.exe guard BASELINE.json FRESH.json [TOLERANCE]";
  exit 1

(* Exit 1 on a regression, 2 on a file that does not parse. *)
let guard base fresh tol =
  match Tdb_bench.Guard.run ?tol ~base:(J.read_file base) (J.read_file fresh) with
  | verdicts ->
      Tdb_bench.Guard.print verdicts;
      exit (if Tdb_bench.Guard.passed verdicts then 0 else 1)
  | exception (J.Error msg | Sys_error msg) ->
      prerr_endline ("guard: " ^ msg);
      exit 2

let () =
  let args = match Array.to_list Sys.argv with _exe :: rest -> rest | [] -> [] in
  (match args with
  | [ "guard"; base; fresh ] -> guard base fresh None
  | [ "guard"; base; fresh; tol ] when Option.is_some (float_of_string_opt tol) ->
      guard base fresh (float_of_string_opt tol)
  | "guard" :: _ -> usage ()
  | _ -> ());
  let scale = ref "default" and idle = ref true and json = ref false and cmds = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        scale := v;
        parse rest
    | "--no-idle" :: rest ->
        idle := false;
        parse rest
    | "--json" :: rest ->
        json := true;
        parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | c :: rest ->
        cmds := c :: !cmds;
        parse rest
  in
  parse args;
  let cmds = match List.rev !cmds with [] -> [ "all" ] | l -> l in
  let scale_name = !scale in
  let scale = pick_scale scale_name in
  let tpcb () =
    let rs = figure10 ~idle:!idle scale in
    if !json then
      write_json "tpcb"
        [ ( "scale",
            J.Obj
              [ ("name", J.Str scale_name); ("accounts", J.Int scale.accounts); ("tellers", J.Int scale.tellers);
                ("branches", J.Int scale.branches); ("transactions", J.Int scale.transactions);
                ("measured", J.Int scale.measured); ("cache_bytes", J.Int scale.cache_bytes) ] );
          ("idle_maintenance", J.Bool !idle); ("systems", J.Arr (List.map tpcb_row rs)) ]
  in
  let micro_bench () =
    let rs = micro () in
    if !json then
      write_json "micro"
        [ ("results", J.Arr (List.map (fun (name, ns) -> J.Obj [ ("name", J.Str name); ("ns_per_op", num 0 ns) ]) rs)) ]
  in
  List.iter
    (fun cmd ->
      match cmd with
      | "all" ->
          Footprint.run ();
          tpcb ();
          figure11 scale;
          micro_bench ();
          ablation scale
      | "footprint" -> Footprint.run ()
      | "tpcb" | "figure10" -> tpcb ()
      | "utilization" | "figure11" -> figure11 scale
      | "micro" -> micro_bench ()
      | "ablation" -> ablation scale
      | "server" -> server_bench ()
      | "replica" -> replica_bench ~json:!json ()
      | "meter" -> meter_bench ~json:!json ~scale_name ()
      | _ -> usage ())
    cmds
