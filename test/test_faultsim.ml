(* Fault-injection regression tests: the crash scenarios behind the
   recovery / counter / restore fixes, each pinned deterministically, plus
   a bounded crashfuzz sweep as a smoke test. *)

open Tdb_platform
open Tdb_chunk
open Tdb_faultsim

let cfg =
  { Config.default with Config.cipher = Config.Aes128; hash = Config.Sha1; segment_size = 2048;
    anchor_slot_size = 1024; initial_segments = 4; checkpoint_residual_bytes = 4 * 2048; clean_batch = 2 }

(* --- recovery: a crash-torn nondurable chain is a crash, not tampering --- *)

(* A bulk-sized nondurable batch splits into a chain of sub-commits; a
   crash may lose any single unsynced write (record header, payload or
   commit record) from ANY link of the chain. Recovery must treat every
   such image as an honest crash: reopen, roll back to the durable
   baseline, stay usable. The pre-fix code excused only the literal final
   record and raised Tamper_detected for the rest. *)
let test_torn_nondurable_chain () =
  let n_chunks = 20 in
  let run_with_drop drop =
    let mem, store = Untrusted_store.open_mem () in
    let _, ctr = One_way_counter.open_mem () in
    let secret = Secret_store.of_seed "torn-chain" in
    let cs = Chunk_store.create ~config:cfg ~secret ~counter:ctr store in
    let base = Chunk_store.allocate cs in
    Chunk_store.write cs base "durable-baseline";
    Chunk_store.commit ~durable:true cs;
    (* count fragments, not write calls: the batch lands as a few vectored
       flushes, but each record edge is still a separately losable fragment
       (one pending entry, one Mem.crash rng draw) *)
    let frags_before = (Untrusted_store.stats store).Untrusted_store.fragments in
    let ids =
      List.init n_chunks (fun i ->
          let cid = Chunk_store.allocate cs in
          Chunk_store.write cs cid (Printf.sprintf "bulk-%03d-%s" i (String.make 80 'x'));
          cid)
    in
    Chunk_store.commit ~durable:false cs;
    let unsynced = (Untrusted_store.stats store).Untrusted_store.fragments - frags_before in
    (* survive every unsynced write except the [drop]-th *)
    let w = ref (-1) in
    Untrusted_store.Mem.crash ~persist_prob:0.5
      ~rng:(fun _ ->
        incr w;
        if Int.equal !w drop then 999 else 0)
      mem;
    (match Chunk_store.open_existing ~config:cfg ~secret ~counter:ctr store with
    | cs2 ->
        (* rolled back to the durable baseline, batch all-or-nothing *)
        Alcotest.(check string) "baseline survives" "durable-baseline" (Chunk_store.read cs2 base);
        List.iter
          (fun cid ->
            match Chunk_store.read cs2 cid with
            | _ -> Alcotest.failf "drop %d: chunk %d visible from a discarded batch" drop cid
            | exception Types.Not_written _ -> ()
            | exception Types.Not_allocated _ -> ())
          ids;
        (* still usable: a fresh durable commit goes through *)
        let c = Chunk_store.allocate cs2 in
        Chunk_store.write cs2 c "post-crash";
        Chunk_store.commit ~durable:true cs2;
        Alcotest.(check string) "post-crash write" "post-crash" (Chunk_store.read cs2 c)
    | exception Types.Tamper_detected m -> Alcotest.failf "drop %d misclassified as tampering: %s" drop m);
    unsynced
  in
  let unsynced = run_with_drop 0 in
  Alcotest.(check bool) "batch is a chained multi-commit" true (unsynced > 10);
  for drop = 1 to unsynced - 1 do
    ignore (run_with_drop drop)
  done

(* --- counter: a torn slot write must never lose monotonicity --- *)

(* After four increments the maximum sits in slot 0; a reopened handle's
   next increment must target slot 1 (the slot NOT holding the max), so a
   torn write costs at most the in-flight increment. The pre-fix blind
   alternation restarted at slot 0 after reopen and let the torn write
   destroy the maximum. *)
let test_torn_counter_slot () =
  let mem, raw = Untrusted_store.open_mem () in
  let plan = Fault_plan.create () in
  let inst = Fault_plan.instrument plan raw in
  let c1 = One_way_counter.open_store inst in
  for _ = 1 to 4 do
    ignore (One_way_counter.increment c1)
  done;
  Alcotest.(check int64) "counter at 4" 4L (One_way_counter.read c1);
  (* reopen, then tear the very next slot write *)
  let c2 = One_way_counter.open_store inst in
  Fault_plan.arm plan ~at:0 ~tear:Fault_plan.Torn;
  (match One_way_counter.increment c2 with
  | v -> Alcotest.failf "increment survived the crashpoint (%Ld)" v
  | exception Fault_plan.Crash_point -> ());
  Fault_plan.reset plan;
  (* the torn write reached the medium; the sync after it did not *)
  Untrusted_store.Mem.crash ~persist_prob:1.0 ~rng:(fun _ -> 0) mem;
  let c3 = One_way_counter.open_store raw in
  let v = One_way_counter.read c3 in
  Alcotest.(check bool) (Printf.sprintf "monotone after torn write (read %Ld)" v) true
    (Int64.compare v 4L >= 0);
  (* and the counter still works *)
  let v' = One_way_counter.increment c3 in
  Alcotest.(check bool) "increment advances" true (Int64.compare v' v > 0)

(* the same window swept across every boundary of the counter protocol *)
let test_counter_crash_sweep () =
  let boundaries_per_increment = 2 (* slot write + sync *) in
  for k = 0 to (4 * boundaries_per_increment) - 1 do
    List.iter
      (fun tear ->
        let mem, raw = Untrusted_store.open_mem () in
        let plan = Fault_plan.create () in
        let inst = Fault_plan.instrument plan raw in
        let c1 = One_way_counter.open_store inst in
        for _ = 1 to 4 do
          ignore (One_way_counter.increment c1)
        done;
        let c2 = One_way_counter.open_store inst in
        Fault_plan.arm plan ~at:k ~tear;
        let floor = ref 4L in
        (try
           for _ = 1 to 4 do
             let v = One_way_counter.increment c2 in
             floor := v
           done
         with Fault_plan.Crash_point -> ());
        Fault_plan.reset plan;
        Untrusted_store.Mem.crash ~persist_prob:1.0 ~rng:(fun _ -> 0) mem;
        let v = One_way_counter.read (One_way_counter.open_store raw) in
        if Int64.compare v !floor < 0 then
          Alcotest.failf "k=%d: counter rolled back to %Ld (floor %Ld)" k v !floor)
      [ Fault_plan.Skip; Fault_plan.Torn; Fault_plan.Applied ]
  done

(* --- restore: oversized backup records surface as typed errors --- *)

let test_oversized_restore_chunk () =
  let _, store = Untrusted_store.open_mem () in
  let _, ctr = One_way_counter.open_mem () in
  let secret = Secret_store.of_seed "oversize" in
  let cs = Chunk_store.create ~config:cfg ~secret ~counter:ctr store in
  let big = String.make (Config.max_chunk_size cfg + 1) 'z' in
  (match Chunk_store.restore_chunk cs 42 big with
  | () -> Alcotest.fail "oversized restore_chunk accepted"
  | exception Types.Chunk_too_large { cid; size; max } ->
      Alcotest.(check int) "offending id" 42 cid;
      Alcotest.(check int) "offending size" (String.length big) size;
      Alcotest.(check bool) "limit positive" true (max > 0));
  (* the store is untouched and usable *)
  Chunk_store.commit cs;
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "fine";
  Chunk_store.commit cs;
  Alcotest.(check string) "store usable" "fine" (Chunk_store.read cs a)

let test_oversized_backup_restore () =
  let open Tdb_backup in
  let big_cfg = { cfg with Config.segment_size = 8192; checkpoint_residual_bytes = 4 * 8192 } in
  let _, src_store = Untrusted_store.open_mem () in
  let _, src_ctr = One_way_counter.open_mem () in
  let secret = Secret_store.of_seed "backup-oversize" in
  let _, archive = Archival_store.open_mem () in
  let src = Chunk_store.create ~config:big_cfg ~secret ~counter:src_ctr src_store in
  let bs = Backup_store.create ~secret ~archive src in
  let a = Chunk_store.allocate src in
  Chunk_store.write src a (String.make 3000 'b');
  Chunk_store.commit src;
  ignore (Backup_store.backup_full bs);
  (* restore into a store whose segments cannot hold that record *)
  let _, tgt_store = Untrusted_store.open_mem () in
  let _, tgt_ctr = One_way_counter.open_mem () in
  let tgt = Chunk_store.create ~config:cfg ~secret ~counter:tgt_ctr tgt_store in
  (match Backup_store.restore ~secret ~archive ~into:tgt () with
  | n -> Alcotest.failf "restore of an impossible record succeeded (%d)" n
  | exception Backup_store.Invalid_backup _ -> ());
  (* the aborted restore left the target clean... *)
  Alcotest.(check bool) "no residue of the oversized chunk" true
    (match Chunk_store.read tgt a with
    | _ -> false
    | exception Types.Not_written _ -> true
    | exception Types.Not_allocated _ -> true);
  (* ...and usable *)
  let c = Chunk_store.allocate tgt in
  Chunk_store.write tgt c "clean";
  Chunk_store.commit tgt;
  Alcotest.(check string) "target usable" "clean" (Chunk_store.read tgt c)

(* --- honest crashes reopen: the anchored map survives until re-anchored --- *)

(* Recovery starts from the anchored location map and replays the residual
   log, so every record either one reaches must outlive the next anchor.
   The workload: 60 chunks and [txns] durable transactions, each
   rewriting 1-4 chunks with fresh payloads, at crashfuzz's small-segment
   config with the chunk cache off, checkpointing after every [every]-th
   transaction as the crash harness does ({!Crashfuzz.cadence}). After
   every commit [check] gets the database and counter stores. *)
let reopen_secret = Secret_store.of_seed "honest-reopen"

let drive_durable ~every ~txns ~seed check =
  let config = { cfg with Config.chunk_cache_bytes = 0 } in
  let db_h, db = Untrusted_store.open_mem () in
  let ctr_h, ctr = Untrusted_store.open_mem () in
  let cs = Chunk_store.create ~config ~secret:reopen_secret ~counter:(One_way_counter.open_store ctr) db in
  let rng = Random.State.make [| seed; every |] in
  let ids = Array.init 60 (fun _ -> Chunk_store.allocate cs) in
  Array.iter (fun cid -> Chunk_store.write cs cid "initial") ids;
  Chunk_store.commit ~durable:true cs;
  for txn = 1 to txns do
    for _ = 1 to 1 + Random.State.int rng 4 do
      let cid = ids.(Random.State.int rng (Array.length ids)) in
      Chunk_store.write cs cid (String.make (40 + Random.State.int rng 160) (Char.chr (97 + (txn mod 26))))
    done;
    Chunk_store.commit ~durable:true cs;
    Crashfuzz.cadence ~every cs txn;
    check ~config txn db_h ctr_h
  done

(* Crash images of the given stores: each store is cloned and the clone
   crashed hard, keeping only synced state. *)
let crash_images db ctr =
  let image h =
    let c, s = Untrusted_store.Mem.clone h in
    Untrusted_store.Mem.crash_hard c;
    (c, s)
  in
  (image db, image ctr)

(* Open an image; [instrument] wraps its stores (for a fault plan). *)
let open_image ?(instrument = Fun.id) ~config ((_, db), (_, ctr)) =
  let counter = One_way_counter.open_store (instrument ctr) in
  Chunk_store.open_existing ~config ~secret:reopen_secret ~counter (instrument db)

(* An honest crash must never read as tampering or a lost anchor. *)
let honest f = match f () with _ -> true | exception (Types.Tamper_detected _ | Chunk_store.Recovery_failed _) -> false

let reopen_grid = [ 8; 64 ]

(* Commit path: after every durable commit, the synced image opens. *)
let test_every_commit_reopens () =
  let failures = ref [] in
  List.iter
    (fun every ->
      drive_durable ~every ~txns:200 ~seed:1 (fun ~config txn db ctr ->
          if not (honest (fun () -> open_image ~config (crash_images db ctr))) then
            failures := (every, txn) :: !failures))
    reopen_grid;
  match List.rev !failures with
  | [] -> ()
  | (e, txn) :: _ ->
      Alcotest.failf "%d honest crash images refused to open; first: checkpoint every %d txns, txn %d"
        (List.length !failures) e txn

(* Crash a fresh image's [open_existing] at boundary [k] (the operation
   there lost), then reopen it uninstrumented. *)
let reopens_after_crash_in_open ~config plan db ctr k =
  let ((cdb, _), (cctr, _)) as images = crash_images db ctr in
  Fault_plan.arm plan ~at:k ~tear:Fault_plan.Skip;
  (match open_image ~instrument:(Fault_plan.instrument plan) ~config images with
  | _ -> Alcotest.failf "open did not reach boundary %d" k
  | exception Fault_plan.Crash_point -> ());
  Fault_plan.reset plan;
  Untrusted_store.Mem.crash_hard cdb;
  Untrusted_store.Mem.crash_hard cctr;
  honest (fun () -> open_image ~config images)

(* Open path: after every durable commit, crash the image's
   [open_existing] at each of its write/sync boundaries and reopen. *)
let test_crash_inside_open_reopens () =
  let failures = ref [] and opens = ref 0 in
  List.iter
    (fun every ->
      drive_durable ~every ~txns:100 ~seed:2 (fun ~config txn db ctr ->
          let plan = Fault_plan.create () in
          Fault_plan.arm plan ~at:max_int ~tear:Fault_plan.Skip;
          if not (honest (fun () -> open_image ~instrument:(Fault_plan.instrument plan) ~config (crash_images db ctr)))
          then failures := (every, txn, -1) :: !failures
          else
            for k = 0 to Fault_plan.ops plan - 1 do
              incr opens;
              if not (reopens_after_crash_in_open ~config plan db ctr k) then
                failures := (every, txn, k) :: !failures
            done))
    reopen_grid;
  Alcotest.(check bool) "crashed inside open" true (!opens > 0);
  match List.rev !failures with
  | [] -> ()
  | (e, txn, k) :: _ ->
      Alcotest.failf
        "%d of %d reopens after a crash inside open failed; first: checkpoint every %d txns, txn %d, boundary %d \
         (-1: the image itself)"
        (List.length !failures) !opens e txn k

(* --- bounded crashfuzz sweeps as regression smoke tests --- *)

(* One crashfuzz smoke test, run over every sweep: each crash sweep must
   cover a real trace that crosses a checkpoint, crash and recover, and
   report no violation; each tamper sweep must report no silent flip. *)
let test_sweep sweep () =
  match sweep () with
  | Crashfuzz.Crash report -> (
      Alcotest.(check bool) "swept a real trace" true (report.Crashfuzz.boundaries > 50);
      Alcotest.(check bool) "trace crosses a checkpoint" true (report.Crashfuzz.checkpoints > 0);
      Alcotest.(check bool) "crashed and recovered" true (report.Crashfuzz.recoveries > 0);
      match report.Crashfuzz.violations with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%d violations, first: %s %s: %s"
            (List.length report.Crashfuzz.violations)
            v.Crashfuzz.v_run v.Crashfuzz.v_kind v.Crashfuzz.v_detail)
  | Crashfuzz.Tamper report -> Alcotest.(check int) "no silent corruption" 0 report.Crashfuzz.silent

let trace = Crashfuzz.smoke_trace
let crash report = Crashfuzz.Crash report

(* The sweeps, one per workload phase:
   - crashpoint: plain TPC-B;
   - group-commit: the server's schedule, nondurable session commits
     coalesced by a staged barrier, crashed at every boundary, including
     inside the barrier's sync window, where further commits land after
     the barrier record;
   - commit-flush: every commit a large durable multi-chunk commit, each
     flush one coalesced vectored write decomposed by the fault plan into
     per-fragment crash boundaries;
   - clean: skewed churn with explicit cleaning passes;
   - replica-ingest: a follower crashed while applying archive streams,
     plus its stream-tamper companion. *)
let sweeps =
  [
    ("bounded crashpoint sweep", fun () -> crash (Crashfuzz.sweep_crashpoints ~trace ~seeds:2 ~stride:17 ()));
    ("bounded group-commit sweep", fun () -> crash (Crashfuzz.sweep_group_commit ~trace ~seeds:2 ~stride:17 ()));
    ("bounded commit-flush sweep", fun () -> crash (Crashfuzz.sweep_commit_flush ~trace ~seeds:2 ~stride:17 ()));
    ("bounded clean sweep", fun () -> crash (Crashfuzz.sweep_clean ~trace ~seeds:2 ~stride:17 ()));
    ("bounded replica-ingest sweep", fun () -> crash (Crashfuzz.sweep_replica ~trace ~seeds:2 ~stride:17 ()));
    ( "bounded replica stream-tamper sweep",
      fun () -> Crashfuzz.Tamper (Crashfuzz.sweep_replica_tamper ~stride:29 ~trace ()) );
  ]

let test_tamper_smoke () =
  let report = Crashfuzz.sweep_tamper ~stride:41 ~trace () in
  Alcotest.(check int) "no silent corruption" 0 report.Crashfuzz.silent;
  Alcotest.(check bool) "flips in live data detected" true (report.Crashfuzz.detected > 0);
  Alcotest.(check bool) "flips in garbage harmless" true (report.Crashfuzz.harmless > 0)

let () =
  Alcotest.run "faultsim"
    [
      ( "recovery",
        [ Alcotest.test_case "torn nondurable chain is a crash" `Quick test_torn_nondurable_chain ] );
      ( "counter",
        [
          Alcotest.test_case "torn slot write stays monotone" `Quick test_torn_counter_slot;
          Alcotest.test_case "crash sweep over counter protocol" `Quick test_counter_crash_sweep;
        ] );
      ( "honest reopen",
        [
          Alcotest.test_case "every durable commit reopens" `Quick test_every_commit_reopens;
          Alcotest.test_case "crash inside open reopens" `Quick test_crash_inside_open_reopens;
        ] );
      ( "restore",
        [
          Alcotest.test_case "oversized restore_chunk" `Quick test_oversized_restore_chunk;
          Alcotest.test_case "oversized backup restore" `Quick test_oversized_backup_restore;
        ] );
      ( "crashfuzz",
        List.map (fun (name, sweep) -> Alcotest.test_case name `Slow (test_sweep sweep)) sweeps
        @ [
            Alcotest.test_case "bounded tamper sweep" `Slow test_tamper_smoke;
          ] );
    ]
