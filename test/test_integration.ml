(* Full-stack integration tests through the Tdb facade: collections over
   objects over chunks over the attacker-controlled store, plus the TPC-B
   drivers run differentially against the baseline engine. *)

type item = { sku : int; mutable qty : int; mutable tag : string }

let item_cls : item Tdb.Obj_class.t =
  let module P = Tdb.Pickle in
  Tdb.Obj_class.define ~name:"itest.item"
    ~pickle:(fun w i ->
      P.int w i.sku;
      P.int w i.qty;
      P.string w i.tag)
    ~unpickle:(fun ~version:_ r ->
      let sku = P.read_int r in
      let qty = P.read_int r in
      let tag = P.read_string r in
      { sku; qty; tag })
    ()

let by_sku = Tdb.Indexer.make ~name:"sku" ~key:Tdb.Gkey.int ~extract:(fun i -> i.sku) ~unique:true ()
let by_qty = Tdb.Indexer.make ~name:"qty" ~key:Tdb.Gkey.int ~extract:(fun i -> i.qty) ()
let ixs = [ Tdb.Indexer.Generic by_sku; Tdb.Indexer.Generic by_qty ]

let with_db f =
  let mem, device = Tdb.Device.in_memory ~seed:"itest" () in
  let db = Tdb.create device in
  Tdb.with_ctxn db (fun ct ->
      let c = Tdb.Cstore.create_collection ct ~name:"items" ~schema:item_cls by_sku in
      Tdb.Cstore.create_index ct c by_qty);
  f mem device db

let open_items ct = Tdb.Cstore.open_collection ct ~name:"items" ~schema:item_cls ~indexers:ixs

let add db sku qty =
  Tdb.with_ctxn db (fun ct -> ignore (Tdb.Cstore.insert ct (open_items ct) { sku; qty; tag = "t" }))

let qty_of db sku =
  Tdb.with_ctxn db (fun ct ->
      let it = Tdb.Cstore.exact ct (open_items ct) by_sku sku in
      let v = if Tdb.Cstore.at_end it then None else Some (Tdb.Cstore.read it).qty in
      Tdb.Cstore.close it;
      v)

(* --- facade lifecycle --- *)

let test_full_stack_roundtrip () =
  with_db (fun _mem device db ->
      List.iter (fun i -> add db i (i * 10)) [ 1; 2; 3; 4; 5 ];
      Tdb.close db;
      let db = Tdb.open_existing device in
      Alcotest.(check (option int)) "sku 3" (Some 30) (qty_of db 3);
      Tdb.with_ctxn db (fun ct ->
          Alcotest.(check int) "size" 5 (Tdb.Cstore.size ct (open_items ct)));
      Tdb.close db)

let test_crash_mid_collection_txn () =
  with_db (fun mem device db ->
      add db 1 100;
      (* an update reaches the cache but the transaction never commits *)
      let ct = Tdb.begin_ctxn db in
      let it = Tdb.Cstore.exact ct (open_items ct) by_sku 1 in
      (Tdb.Cstore.write it).qty <- 999;
      Tdb.Cstore.advance it;
      Tdb.Cstore.close it;
      (* crash: everything unsynced is lost *)
      Tdb.Untrusted_store.Mem.crash_hard mem;
      let db2 = Tdb.open_existing device in
      Alcotest.(check (option int)) "update rolled back" (Some 100) (qty_of db2 1);
      Alcotest.(check (option int)) "committed row intact" (Some 100) (qty_of db2 1))

let test_crash_storm_over_collections () =
  let rng = Tdb_crypto.Drbg.create ~seed:"istorm" in
  with_db (fun mem device db ->
      let model = Hashtbl.create 16 in
      let dbr = ref db in
      for round = 1 to 8 do
        let db = !dbr in
        for sku = 0 to 9 do
          if Tdb_crypto.Drbg.int rng 2 = 0 then begin
            let qty = Tdb_crypto.Drbg.int rng 1000 in
            (if Hashtbl.mem model sku then
               Tdb.with_ctxn db (fun ct ->
                   let it = Tdb.Cstore.exact ct (open_items ct) by_sku sku in
                   (Tdb.Cstore.write it).qty <- qty;
                   Tdb.Cstore.advance it;
                   Tdb.Cstore.close it)
             else add db sku qty);
            Hashtbl.replace model sku qty
          end
        done;
        (* all the above committed durably; crash and verify *)
        Tdb.Untrusted_store.Mem.crash ~persist_prob:0.3 ~rng:(fun n -> Tdb_crypto.Drbg.int rng n) mem;
        let db = Tdb.open_existing device in
        dbr := db;
        Hashtbl.iter
          (fun sku qty ->
            Alcotest.(check (option int)) (Printf.sprintf "round %d sku %d" round sku) (Some qty) (qty_of db sku))
          model
      done)

let test_backup_of_collections () =
  with_db (fun _mem device db ->
      List.iter (fun i -> add db i i) [ 1; 2; 3 ];
      ignore (Tdb.backup_full db);
      add db 4 4;
      ignore (Tdb.backup_incremental db);
      Tdb.close db;
      let _, store = Tdb.Untrusted_store.open_mem () in
      let _, counter = Tdb.One_way_counter.open_mem () in
      let db2 = Tdb.restore ~from:device.Tdb.Device.archive { device with Tdb.Device.store; counter } in
      Alcotest.(check (option int)) "restored collection works" (Some 4) (qty_of db2 4);
      Tdb.with_ctxn db2 (fun ct ->
          Alcotest.(check int) "all rows" 4 (Tdb.Cstore.size ct (open_items ct)));
      (* and the restored database is fully writable *)
      add db2 5 5;
      Alcotest.(check (option int)) "writable after restore" (Some 5) (qty_of db2 5))

let test_tamper_detected_through_stack () =
  with_db (fun mem device db ->
      List.iter (fun i -> add db i i) (List.init 20 (fun i -> i));
      Tdb.close db;
      let log_base = 2 * Tdb.Chunk_config.default.Tdb.Chunk_config.anchor_slot_size in
      let size = Tdb.Untrusted_store.size device.Tdb.Device.store in
      (* corrupt the whole log body (sparing the anchor): at least one
         access must hit poisoned live data *)
      Tdb.Untrusted_store.Mem.corrupt mem ~off:log_base ~len:(size - log_base) ~mask:0x20;
      Alcotest.(check bool) "detected" true
        (match
           let db = Tdb.open_existing device in
           List.init 20 (fun i -> qty_of db i)
         with
        | _ -> false
        | exception Tdb.Tamper_detected _ -> true
        | exception Tdb.Chunk_store.Recovery_failed _ -> true))

let test_replay_detected_through_stack () =
  with_db (fun mem device db ->
      add db 1 100;
      Tdb.close db;
      let saved = Tdb.Untrusted_store.Mem.snapshot mem in
      let db = Tdb.open_existing device in
      add db 2 200;
      Tdb.close db;
      Tdb.Untrusted_store.Mem.restore mem saved;
      Alcotest.(check bool) "replay detected" true
        (match Tdb.open_existing device with
        | _ -> false
        | exception Tdb.Tamper_detected _ -> true))

let test_idle_maintenance_preserves_data () =
  with_db (fun _mem device db ->
      List.iter (fun i -> add db i i) (List.init 50 (fun i -> i));
      for round = 1 to 5 do
        Tdb.with_ctxn db (fun ct ->
            let it = Tdb.Cstore.scan ct (open_items ct) by_sku in
            while not (Tdb.Cstore.at_end it) do
              (Tdb.Cstore.write it).qty <- round;
              Tdb.Cstore.advance it
            done;
            Tdb.Cstore.close it);
        Tdb.idle_maintenance db
      done;
      Tdb.close db;
      let db = Tdb.open_existing device in
      for i = 0 to 49 do
        Alcotest.(check (option int)) "after cleaning" (Some 5) (qty_of db i)
      done)

(* --- differential TPC-B: both engines must agree --- *)

let test_tpcb_engines_agree () =
  let scale = { Tdb_tpcb.Workload.quick_scale with Tdb_tpcb.Workload.transactions = 300 } in
  let tdb = Tdb_tpcb.Tdb_driver.setup ~security:true scale in
  let bdb = Tdb_tpcb.Bdb_driver.setup scale in
  let rng1 = Tdb_crypto.Drbg.create ~seed:"diff" in
  let rng2 = Tdb_crypto.Drbg.create ~seed:"diff" in
  for i = 1 to 300 do
    let i1 = Tdb_tpcb.Workload.gen_txn rng1 scale in
    let i2 = Tdb_tpcb.Workload.gen_txn rng2 scale in
    let b1 = Tdb_tpcb.Tdb_driver.txn tdb i1 in
    let b2 = Tdb_tpcb.Bdb_driver.txn bdb i2 in
    if b1 <> b2 then Alcotest.failf "balances diverge at txn %d: tdb %d vs bdb %d" i b1 b2
  done

(* TDB-S at the scale of `bench/main.exe tpcb --scale quick`, with idle
   maintenance every 500 transactions. *)
let quick_tdbs = lazy (Tdb_tpcb.Runner.run_tdb ~security:true ~idle_every:500 Tdb_tpcb.Workload.quick_scale)

(* The object cache holds the whole cache allowance and the chunk tier
   runs at 0, so every chunk-cache miss is a log read: the chunks the
   object cache does not hold. That run reads the log 1 925 times; a 1:3
   object-to-chunk split that wrote object-store commits through to the
   chunk tier missed 2 924 times. *)
let test_tpcb_chunk_cache_misses () =
  let misses = (Lazy.force quick_tdbs).Tdb_tpcb.Runner.cache_misses in
  if misses > 2_500 then Alcotest.failf "chunk-cache misses %d, over the bound of 2 500" misses

(* Map checkpoints are idle-time work: each idle clean pass ends in one,
   and a TDB-S transaction appends ~840 B of residual log, so the default
   768 KiB bound is not reached between idle windows 500 transactions
   apart. A 384 KiB bound fired once per window. *)
let test_tpcb_no_foreground_checkpoints () =
  Alcotest.(check int) "checkpoints inside measured transactions" 0
    (Lazy.force quick_tdbs).Tdb_tpcb.Runner.fg_checkpoints

let () =
  Alcotest.run "tdb_integration"
    [
      ( "facade",
        [
          Alcotest.test_case "roundtrip + restart" `Quick test_full_stack_roundtrip;
          Alcotest.test_case "crash mid-txn" `Quick test_crash_mid_collection_txn;
          Alcotest.test_case "crash storm" `Slow test_crash_storm_over_collections;
          Alcotest.test_case "idle maintenance" `Quick test_idle_maintenance_preserves_data;
        ] );
      ( "security",
        [
          Alcotest.test_case "tamper through stack" `Quick test_tamper_detected_through_stack;
          Alcotest.test_case "replay through stack" `Quick test_replay_detected_through_stack;
        ] );
      ("backup", [ Alcotest.test_case "collections restored" `Quick test_backup_of_collections ]);
      ( "tpcb",
        [
          Alcotest.test_case "engines agree" `Slow test_tpcb_engines_agree;
          Alcotest.test_case "chunk-cache misses" `Quick test_tpcb_chunk_cache_misses;
          Alcotest.test_case "no foreground checkpoints" `Quick test_tpcb_no_foreground_checkpoints;
        ] );
    ]
