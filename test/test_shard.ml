(* Shard router tests: chunk-id routing, 1-shard byte compatibility with
   the unsharded store format, cross-shard 2PC (commit, veto/abort,
   crash recovery, per-shard counter enforcement), the object-level
   abort path under concurrent transfers, and the barrier-skip guarantee
   (a barrier touches only shards with nondurable commits to promote). *)

open Tdb_platform
open Tdb_chunk
open Tdb_objstore

let secret () = Secret_store.of_seed "shard-test"

let cfg n =
  { Config.default with Config.segment_size = 4096; initial_segments = 8; checkpoint_every = 32;
    anchor_slot_size = 2048; shards = n }

type env = {
  store_mems : Untrusted_store.Mem.handle array;
  stores : Untrusted_store.t array;
  ctr_mems : One_way_counter.Mem.handle array;
  ctrs : One_way_counter.t array;
}

let make_env n =
  let s = Array.init n (fun _ -> Untrusted_store.open_mem ()) in
  let c = Array.init n (fun _ -> One_way_counter.open_mem ()) in
  {
    store_mems = Array.map fst s;
    stores = Array.map snd s;
    ctr_mems = Array.map fst c;
    ctrs = Array.map snd c;
  }

(* --- 1-shard byte compatibility --- *)

(* A database written through a 1-shard router opens as a plain unsharded
   chunk store, and vice versa: at n = 1 the router is the identity. *)
let test_single_shard_byte_compat () =
  let env = make_env 1 in
  let sec = secret () in
  let ss = Shard_store.create ~config:(cfg 1) ~secret:sec ~counters:env.ctrs env.stores in
  let ids =
    List.init 5 (fun i ->
        let cid = Shard_store.allocate ss in
        Shard_store.write ss cid (Printf.sprintf "payload-%d" i);
        cid)
  in
  Shard_store.commit ~durable:true ss;
  Shard_store.close ss;
  let cs = Chunk_store.open_existing ~config:(cfg 1) ~secret:sec ~counter:env.ctrs.(0) env.stores.(0) in
  List.iteri
    (fun i cid ->
      Alcotest.(check string) "readable unsharded" (Printf.sprintf "payload-%d" i) (Chunk_store.read cs cid))
    ids;
  let extra = Chunk_store.allocate cs in
  Chunk_store.write cs extra "written-unsharded";
  Chunk_store.commit ~durable:true cs;
  Chunk_store.close cs;
  let ss = Shard_store.open_existing ~config:(cfg 1) ~secret:sec ~counters:env.ctrs env.stores in
  Alcotest.(check string) "readable through the router" "written-unsharded" (Shard_store.read ss extra);
  List.iteri
    (fun i cid ->
      Alcotest.(check string) "old chunk intact" (Printf.sprintf "payload-%d" i) (Shard_store.read ss cid))
    ids;
  Shard_store.close ss

(* --- routing --- *)

let test_routing () =
  let n = 4 in
  let env = make_env n in
  let sec = secret () in
  let ss = Shard_store.create ~config:(cfg n) ~secret:sec ~counters:env.ctrs env.stores in
  let payload i = Printf.sprintf "s%d-%d" (i mod n) i in
  let cids =
    Array.init 16 (fun i ->
        let cid = Shard_store.allocate ~shard:(i mod n) ss in
        Shard_store.write ss cid (payload i);
        cid)
  in
  Shard_store.commit ~durable:true ss;
  Array.iteri
    (fun i cid -> Alcotest.(check string) "read back" (payload i) (Shard_store.read ss cid))
    cids;
  Alcotest.(check int) "global ids distinct" 16
    (List.length (List.sort_uniq compare (Array.to_list cids)));
  (* the published encoding stripes shard [s] over ids congruent to [s] *)
  Array.iteri
    (fun i cid ->
      Alcotest.(check bool) "above the reserved range" true (cid >= 8);
      Alcotest.(check int) "stripe" (i mod n) ((cid - 8) mod n))
    cids;
  Shard_store.close ss;
  let ss = Shard_store.open_existing ~config:(cfg n) ~secret:sec ~counters:env.ctrs env.stores in
  Array.iteri
    (fun i cid -> Alcotest.(check string) "persisted" (payload i) (Shard_store.read ss cid))
    cids;
  Shard_store.close ss;
  (* opening at the wrong width is refused, not served partially *)
  let refused what ~counters stores =
    match Shard_store.open_existing ~config:(cfg (Array.length stores)) ~secret:sec ~counters stores with
    | _ -> Alcotest.fail ("opened " ^ what)
    | exception Chunk_store.Recovery_failed _ -> ()
  in
  refused "4-shard store at width 2" ~counters:(Array.sub env.ctrs 0 2) (Array.sub env.stores 0 2);
  refused "4-shard store at width 1" ~counters:(Array.sub env.ctrs 0 1) (Array.sub env.stores 0 1);
  (* an unsharded image standing in for shard 0 of a 2-shard store *)
  let env2 = make_env 2 and plain = make_env 1 in
  Shard_store.close (Shard_store.create ~config:(cfg 2) ~secret:sec ~counters:env2.ctrs env2.stores);
  Chunk_store.close (Chunk_store.create ~config:(cfg 1) ~secret:sec ~counter:plain.ctrs.(0) plain.stores.(0));
  refused "unsharded store as shard 0 of width 2" ~counters:[| plain.ctrs.(0); env2.ctrs.(1) |]
    [| plain.stores.(0); env2.stores.(1) |]

(* --- cross-shard 2PC --- *)

(* A durable cross-shard commit survives a crash of every shard with
   all-or-nothing visibility; a nondurable single-shard commit after it
   is rolled back cleanly, exactly as in the unsharded store. *)
let test_cross_shard_recovery () =
  let n = 2 in
  let env = make_env n in
  let sec = secret () in
  let ss = Shard_store.create ~config:(cfg n) ~secret:sec ~counters:env.ctrs env.stores in
  let a = Shard_store.allocate ~shard:0 ss and b = Shard_store.allocate ~shard:1 ss in
  Shard_store.write ss a "a0";
  Shard_store.write ss b "b0";
  Shard_store.commit ~durable:true ss;
  Shard_store.write ss a "a1";
  Shard_store.write ss b "b1";
  Shard_store.commit ~durable:true ss;
  Alcotest.(check bool) "took the 2PC path" true (Shard_store.cross_commits ss >= 1);
  Array.iter Untrusted_store.Mem.crash_hard env.store_mems;
  let ss = Shard_store.open_existing ~config:(cfg n) ~secret:sec ~counters:env.ctrs env.stores in
  Alcotest.(check string) "shard 0 applied" "a1" (Shard_store.read ss a);
  Alcotest.(check string) "shard 1 applied" "b1" (Shard_store.read ss b);
  Shard_store.write ss a "a2";
  Shard_store.commit ~durable:false ss;
  Array.iter Untrusted_store.Mem.crash_hard env.store_mems;
  let ss = Shard_store.open_existing ~config:(cfg n) ~secret:sec ~counters:env.ctrs env.stores in
  Alcotest.(check string) "nondurable rolled back" "a1" (Shard_store.read ss a);
  Alcotest.(check string) "other shard untouched" "b1" (Shard_store.read ss b);
  Shard_store.close ss

(* One participant votes no: the transaction raises [Vetoed], every
   participant rolls back, and the router stays fully usable. *)
let test_veto_rolls_back () =
  let n = 2 in
  let env = make_env n in
  let sec = secret () in
  let ss = Shard_store.create ~config:(cfg n) ~secret:sec ~counters:env.ctrs env.stores in
  let a = Shard_store.allocate ~shard:0 ss and b = Shard_store.allocate ~shard:1 ss in
  Shard_store.write ss a "a0";
  Shard_store.write ss b "b0";
  Shard_store.commit ~durable:true ss;
  Shard_store.set_prepare_hook ss (Some (fun s -> not (Int.equal s 1)));
  Shard_store.write ss a "ax";
  Shard_store.write ss b "bx";
  (match Shard_store.commit ~durable:true ss with
  | () -> Alcotest.fail "vetoed commit succeeded"
  | exception Shard_store.Vetoed s -> Alcotest.(check int) "vetoing shard" 1 s);
  Shard_store.set_prepare_hook ss None;
  Alcotest.(check string) "shard 0 rolled back" "a0" (Shard_store.read ss a);
  Alcotest.(check string) "shard 1 rolled back" "b0" (Shard_store.read ss b);
  Shard_store.write ss a "a1";
  Shard_store.write ss b "b1";
  Shard_store.commit ~durable:true ss;
  Shard_store.close ss;
  let ss = Shard_store.open_existing ~config:(cfg n) ~secret:sec ~counters:env.ctrs env.stores in
  Alcotest.(check string) "retry persisted on shard 0" "a1" (Shard_store.read ss a);
  Alcotest.(check string) "retry persisted on shard 1" "b1" (Shard_store.read ss b);
  Shard_store.close ss

(* A shard whose operations cancel out (a chunk allocated and deallocated
   unwritten) has no batch, so it is not a participant: the commit stays
   a nondurable single-shard commit instead of a forced-durable 2PC. *)
let test_cancelled_ops_not_a_participant () =
  let n = 2 in
  let env = make_env n in
  let sec = secret () in
  let ss = Shard_store.create ~config:(cfg n) ~secret:sec ~counters:env.ctrs env.stores in
  let a = Shard_store.allocate ~shard:0 ss in
  Shard_store.write ss a "a0";
  Shard_store.commit ~durable:true ss;
  let cross_before = Shard_store.cross_commits ss in
  let counters_before = Shard_store.shard_counters ss in
  let b = Shard_store.allocate ~shard:1 ss in
  Shard_store.deallocate ss b;
  Shard_store.write ss a "a1";
  Shard_store.commit ~durable:false ss;
  Alcotest.(check int) "not a 2PC" cross_before (Shard_store.cross_commits ss);
  Alcotest.(check (array int64)) "no counter moved" counters_before (Shard_store.shard_counters ss);
  Alcotest.(check string) "committed" "a1" (Shard_store.read ss a);
  Shard_store.close ss

(* Each shard's one-way counter is enforced independently: rolling back a
   single shard's counter is flagged as tampering at open. *)
let test_counter_rollback_detected () =
  let n = 2 in
  let env = make_env n in
  let sec = secret () in
  let ss = Shard_store.create ~config:(cfg n) ~secret:sec ~counters:env.ctrs env.stores in
  let a = Shard_store.allocate ~shard:0 ss and b = Shard_store.allocate ~shard:1 ss in
  Shard_store.write ss a "a0";
  Shard_store.write ss b "b0";
  Shard_store.commit ~durable:true ss;
  Shard_store.close ss;
  One_way_counter.Mem.rollback env.ctr_mems.(1) 0L;
  match Shard_store.open_existing ~config:(cfg n) ~secret:sec ~counters:env.ctrs env.stores with
  | _ -> Alcotest.fail "rolled-back shard counter accepted"
  | exception Tdb_chunk.Types.Tamper_detected _ -> ()

(* --- barrier skip --- *)

(* The point of sharding: a commit confined to one shard must not drag
   the other shards' barriers (or counters) along. A barrier runs only on
   shards with nondurable commits still to promote, at every width: an
   idle barrier after a durable commit, or one after a checkpoint already
   promoted the nondurable commit, touches no shard. *)
let check_barrier_skips n =
  let env = make_env n in
  let sec = secret () in
  let ss = Shard_store.create ~config:(cfg n) ~secret:sec ~counters:env.ctrs env.stores in
  (* settle every shard with one durable commit each *)
  for s = 0 to n - 1 do
    let cid = Shard_store.allocate ~shard:s ss in
    Shard_store.write ss cid (Printf.sprintf "seed-%d" s);
    Shard_store.commit ~durable:true ss
  done;
  let cross_before = Shard_store.cross_commits ss in
  (* barrier with [active] the only shard with nondurable commits *)
  let barrier what ~active =
    let barriers_before = Shard_store.shard_barriers ss in
    let counters_before = Shard_store.shard_counters ss in
    Shard_store.durable_barrier ss;
    let barriers_after = Shard_store.shard_barriers ss in
    let counters_after = Shard_store.shard_counters ss in
    Array.iteri
      (fun s before ->
        let name fmt = Printf.sprintf ("width %d, %s: shard %d " ^^ fmt) n what s in
        if Some s = active then begin
          Alcotest.(check bool) (name "ran its barrier") true (barriers_after.(s) > before);
          Alcotest.(check bool) (name "counter advanced") true
            (Int64.compare counters_after.(s) counters_before.(s) > 0)
        end
        else begin
          Alcotest.(check int) (name "skipped the barrier") before barriers_after.(s);
          Alcotest.(check int64) (name "counter untouched") counters_before.(s) counters_after.(s)
        end)
      barriers_before
  in
  let s = min 2 (n - 1) in
  let cid = Shard_store.allocate ~shard:s ss in
  Shard_store.write ss cid "only-one-shard";
  Shard_store.commit ~durable:false ss;
  barrier "nondurable commit" ~active:(Some s);
  Alcotest.(check int) "single-shard commit is not a 2PC" cross_before (Shard_store.cross_commits ss);
  Shard_store.write ss cid "durable";
  Shard_store.commit ~durable:true ss;
  barrier "idle after a durable commit" ~active:None;
  Shard_store.write ss cid "promoted";
  Shard_store.commit ~durable:false ss;
  Shard_store.checkpoint ss;
  barrier "after a promoting checkpoint" ~active:None;
  (* the skipped barrier lost nothing: the checkpoint made it durable *)
  Array.iter Untrusted_store.Mem.crash_hard env.store_mems;
  let ss = Shard_store.open_existing ~config:(cfg n) ~secret:sec ~counters:env.ctrs env.stores in
  Alcotest.(check string) (Printf.sprintf "width %d: promoted commit survives" n) "promoted"
    (Shard_store.read ss cid);
  Shard_store.close ss

let test_barrier_skips_clean_shards () = List.iter check_barrier_skips [ 1; 4 ]

(* --- object-level abort path under concurrent transfers --- *)

type acct = { bal : int }

let acct_cls : acct Obj_class.t =
  Obj_class.define ~name:"shardtest.acct"
    ~pickle:(fun w (a : acct) -> Tdb_pickle.Pickle.int w a.bal)
    ~unpickle:(fun ~version:_ r -> { bal = Tdb_pickle.Pickle.read_int r })
    ()

(* Concurrent transfer stress over a sharded store with a prepare hook
   vetoing a slice of the cross-shard transactions: every veto must roll
   the whole transfer back (money conserved), release its 2PL locks, and
   leave the router healthy — including across a close/reopen. *)
let test_concurrent_transfers_with_veto () =
  let n = 2 in
  let env = make_env n in
  let sec = secret () in
  let ss = Shard_store.create ~config:(cfg n) ~secret:sec ~counters:env.ctrs env.stores in
  let os =
    Object_store.of_shard_store
      ~config:{ Object_store.default_config with Object_store.lock_timeout = 5.0 }
      ss
  in
  let naccts = 8 in
  let initial = 1000 in
  let oids =
    Object_store.with_txn os (fun x ->
        Array.init naccts (fun i ->
            Object_store.set_alloc_shard x (Some (i mod n));
            Object_store.insert x acct_cls { bal = initial }))
  in
  let hook_calls = Atomic.make 0 and vetoes = Atomic.make 0 in
  Shard_store.set_prepare_hook ss
    (Some (fun _ -> not (Int.equal (Atomic.fetch_and_add hook_calls 1) 8)));
  (* the 9th prepare vote (and only it) is a no: one deterministic veto *)
  let timeouts = Atomic.make 0 in
  let worker k =
    let rng = Tdb_crypto.Drbg.create ~seed:(Printf.sprintf "xfer-%d" k) in
    for i = 0 to 24 do
      let a = Tdb_crypto.Drbg.int rng naccts in
      let b = (a + 1 + Tdb_crypto.Drbg.int rng (naccts - 1)) mod naccts in
      (* lock in oid order so transfers cannot deadlock each other *)
      let a, b = if a < b then (a, b) else (b, a) in
      let amt = 1 + Tdb_crypto.Drbg.int rng 50 in
      match
        Object_store.with_txn ~durable:(Int.equal (i mod 3) 0) os (fun x ->
            let va = Object_store.deref (Object_store.open_readonly x acct_cls oids.(a)) in
            let vb = Object_store.deref (Object_store.open_readonly x acct_cls oids.(b)) in
            Object_store.update x acct_cls oids.(a) { bal = va.bal - amt };
            Object_store.update x acct_cls oids.(b) { bal = vb.bal + amt })
      with
      | () -> ()
      | exception Shard_store.Vetoed _ -> Atomic.incr vetoes
      | exception Lock_manager.Lock_timeout _ -> Atomic.incr timeouts
    done
  in
  let threads = List.init 4 (fun k -> Thread.create worker k) in
  List.iter Thread.join threads;
  Shard_store.set_prepare_hook ss None;
  let sum os =
    Object_store.with_txn ~durable:false os (fun x ->
        Array.fold_left
          (fun acc oid -> acc + (Object_store.deref (Object_store.open_readonly x acct_cls oid)).bal)
          0 oids)
  in
  Alcotest.(check int) "money conserved" (naccts * initial) (sum os);
  Alcotest.(check int) "all 2PL locks released" 0 (Object_store.held_count os);
  Alcotest.(check bool) "cross-shard transfers happened" true (Shard_store.cross_commits ss > 0);
  Alcotest.(check int) "the veto fired exactly once" 1 (Atomic.get vetoes);
  Object_store.close os;
  let ss = Shard_store.open_existing ~config:(cfg n) ~secret:sec ~counters:env.ctrs env.stores in
  let os = Object_store.of_shard_store ss in
  Alcotest.(check int) "conserved after reopen" (naccts * initial) (sum os);
  Object_store.close os

(* --- IVs: shards share the secret but never an IV --- *)

let test_iv_unique_across_shards () =
  let n = 4 in
  let env = make_env n in
  let probe = Iv_probe.create () in
  let stores = Array.map (Iv_probe.watch probe) env.stores in
  let sec = secret () in
  let ss = Shard_store.create ~config:(cfg n) ~secret:sec ~counters:env.ctrs stores in
  for i = 0 to 15 do
    let cid = Shard_store.allocate ~shard:(i mod n) ss in
    Shard_store.write ss cid (Printf.sprintf "shard %d record %d" (i mod n) i)
  done;
  Shard_store.commit ~durable:true ss;
  Shard_store.close ss;
  Alcotest.(check bool) (Printf.sprintf "sealed records seen (%d)" (Iv_probe.records probe)) true
    (Iv_probe.records probe >= 2 * n);
  Alcotest.(check int) "repeated IVs" 0 (Iv_probe.repeats probe)

let () =
  Alcotest.run "tdb_shard"
    [
      ( "routing",
        [
          Alcotest.test_case "1-shard byte compatibility" `Quick test_single_shard_byte_compat;
          Alcotest.test_case "striping + width check" `Quick test_routing;
          Alcotest.test_case "IVs unique across shards" `Quick test_iv_unique_across_shards;
        ] );
      ( "2pc",
        [
          Alcotest.test_case "crash recovery all-or-nothing" `Quick test_cross_shard_recovery;
          Alcotest.test_case "veto rolls back every participant" `Quick test_veto_rolls_back;
          Alcotest.test_case "per-shard counter rollback detected" `Quick test_counter_rollback_detected;
          Alcotest.test_case "cancelled ops make no participant" `Quick test_cancelled_ops_not_a_participant;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "single-shard commit skips clean barriers" `Quick
            test_barrier_skips_clean_shards;
          Alcotest.test_case "concurrent transfers + veto abort path" `Slow
            test_concurrent_transfers_with_veto;
        ] );
    ]
