(* Chunk store tests: API semantics, durability/recovery, tamper and replay
   detection, cleaning and the utilization policy, snapshots and diffs. *)

open Tdb_platform
open Tdb_chunk

let cfg ?(security = true) ?(segment_size = 4096) ?(initial_segments = 8) ?(max_utilization = 0.6) () =
  { Config.default with Config.security; segment_size; initial_segments; max_utilization;
    anchor_slot_size = 2048; clean_batch = 2; checkpoint_residual_bytes = 4 * segment_size }

(* A test's own checkpoint cadence, on top of the residual bound: the
   crash harness's, so after commit number [n], checkpoint when [every]
   divides it. *)
let cadence = Tdb_faultsim.Crashfuzz.cadence

type env = {
  mem : Untrusted_store.Mem.handle;
  store : Untrusted_store.t;
  secret : Secret_store.t;
  ctr_h : One_way_counter.Mem.handle;
  ctr : One_way_counter.t;
}

let fresh_env () =
  let mem, store = Untrusted_store.open_mem () in
  let ctr_h, ctr = One_way_counter.open_mem () in
  { mem; store; secret = Secret_store.of_seed "test-device"; ctr_h; ctr }

let create ?(config = cfg ()) env = Chunk_store.create ~config ~secret:env.secret ~counter:env.ctr env.store
let reopen ?(config = cfg ()) env = Chunk_store.open_existing ~config ~secret:env.secret ~counter:env.ctr env.store

(* --- basic API semantics (paper Figure 2) --- *)

let test_write_read () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  let b = Chunk_store.allocate cs in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Chunk_store.write cs a "alpha";
  Chunk_store.write cs b "beta";
  Chunk_store.commit cs;
  Alcotest.(check string) "read a" "alpha" (Chunk_store.read cs a);
  Alcotest.(check string) "read b" "beta" (Chunk_store.read cs b)

(* The vectored write path: a commit's records — chunk data and the commit
   record — reach the store as a single coalesced flush, while every record
   edge stays an individually losable fragment for the crash model. *)
let test_commit_single_flush () =
  let env = fresh_env () in
  let cs = create env in
  Chunk_store.commit cs (* settle any creation-time writes *);
  let ids = List.init 6 (fun _ -> Chunk_store.allocate cs) in
  List.iteri
    (fun i cid -> Chunk_store.write cs cid (Printf.sprintf "payload-%d-%s" i (String.make 64 'p')))
    ids;
  let st = Untrusted_store.stats env.store in
  let w0 = st.Untrusted_store.writes and f0 = st.Untrusted_store.fragments in
  Chunk_store.commit ~durable:true cs;
  let dw = st.Untrusted_store.writes - w0 and df = st.Untrusted_store.fragments - f0 in
  Alcotest.(check bool) (Printf.sprintf "one coalesced flush (%d write calls)" dw) true (dw >= 1 && dw <= 2);
  Alcotest.(check bool) (Printf.sprintf "record edges stay fragments (%d)" df) true (df >= 13);
  List.iteri
    (fun i cid ->
      Alcotest.(check string) "readback" (Printf.sprintf "payload-%d-%s" i (String.make 64 'p'))
        (Chunk_store.read cs cid))
    ids

(* A crash can preserve stale [Next_segment] bytes from a segment's
   previous incarnation, so the residual chain on the store may contain a
   cycle. scan_chain must treat the revisit as the end of the chain (the
   durable-prefix rule truncates there) rather than loop forever — found
   by the crashfuzz commit-flush sweep at a fragment boundary whose
   surviving-writes subset kept an old marker intact. *)
(* A record header built by hand: magic, kind byte, 4-byte length. *)
let raw_header ?(magic = Log.magic_byte) kind_byte len =
  let h = Bytes.create Log.header_size in
  Bytes.set h 0 magic;
  Bytes.set h 1 (Char.chr kind_byte);
  Bytes.set h 2 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set h 3 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set h 4 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set h 5 (Char.chr (len land 0xff));
  Bytes.to_string h

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_scan_chain_cycle () =
  let _, store = Untrusted_store.open_mem () in
  let log = Log.create store (cfg ()) in
  let seg_size = Log.segment_size log in
  let seg_start s = log.Log.log_base + (s * seg_size) in
  let header kind len = raw_header (Types.kind_to_byte kind) len in
  let marker next =
    header Types.Next_segment 4
    ^ String.init 4 (fun i -> Char.chr ((next lsr (8 * (3 - i))) land 0xff))
  in
  let data s = header Types.Data_chunk (String.length s) ^ s in
  (* segment 0 chains to 1; segment 1 holds stale debris chaining back to 0 *)
  Untrusted_store.write store ~off:(seg_start 0) (data "aaaa" ^ marker 1);
  Untrusted_store.write store ~off:(seg_start 1) (data "bbbb" ^ marker 0);
  let seen = ref [] in
  Log.scan_chain log ~seg:0 ~off:0 ~f:(fun _ _ payload -> seen := payload :: !seen);
  Alcotest.(check (list string)) "each segment's records visited once" [ "aaaa"; "bbbb" ]
    (List.rev !seen)

(* Recovery's chain scan and the cleaner's segment scan decode record
   headers from untrusted bytes before any MAC check. Both must stop, not
   skip ahead, at the first header with a bad magic byte, an unknown kind
   or a length running past the segment end. *)
let test_scans_stop_at_bad_header () =
  let data_byte = Types.kind_to_byte Types.Data_chunk in
  let cases =
    [
      ("well-formed", raw_header data_byte 4, [ "aaaa"; "bbbb"; "cccc"; "dddd" ]);
      ("bad magic", raw_header ~magic:'\x00' data_byte 4, [ "aaaa"; "bbbb" ]);
      ("unknown kind", raw_header 0xEE 4, [ "aaaa"; "bbbb" ]);
      ("length past segment end", raw_header data_byte 4096, [ "aaaa"; "bbbb" ]);
    ]
  in
  List.iter
    (fun (what, third, expect) ->
      let _, store = Untrusted_store.open_mem () in
      let log = Log.create store (cfg ()) in
      let data s = raw_header data_byte (String.length s) ^ s in
      let seg0 = log.Log.log_base in
      Untrusted_store.write store ~off:seg0 (data "aaaa" ^ data "bbbb" ^ third ^ "cccc" ^ data "dddd");
      let chain = ref [] in
      Log.scan_chain log ~seg:0 ~off:0 ~f:(fun _ _ payload -> chain := payload :: !chain);
      Alcotest.(check (list string)) (what ^ ": chain scan") expect (List.rev !chain);
      Alcotest.(check (list string)) (what ^ ": segment scan") expect
        (List.map (fun (_, _, payload) -> payload) (Log.scan_segment log 0)))
    cases

let test_read_uncommitted_batch () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "pending";
  Alcotest.(check string) "pending visible" "pending" (Chunk_store.read cs a)

let test_unallocated_signals () =
  let env = fresh_env () in
  let cs = create env in
  Alcotest.(check bool) "write unallocated" true
    (match Chunk_store.write cs 999 "x" with exception Types.Not_allocated 999 -> true | _ -> false);
  Alcotest.(check bool) "read unwritten" true
    (match Chunk_store.read cs 999 with exception Types.Not_written 999 -> true | _ -> false);
  Alcotest.(check bool) "dealloc unallocated" true
    (match Chunk_store.deallocate cs 999 with exception Types.Not_allocated 999 -> true | _ -> false)

let test_overwrite_and_resize () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "short";
  Chunk_store.commit cs;
  Chunk_store.write cs a (String.make 500 'x');
  Chunk_store.commit cs;
  Alcotest.(check int) "resized" 500 (String.length (Chunk_store.read cs a));
  Chunk_store.write cs a "";
  Chunk_store.commit cs;
  Alcotest.(check string) "empty state" "" (Chunk_store.read cs a)

let test_deallocate () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "gone soon";
  Chunk_store.commit cs;
  Chunk_store.deallocate cs a;
  Chunk_store.commit cs;
  Alcotest.(check bool) "read after dealloc" true
    (match Chunk_store.read cs a with exception Types.Not_written _ -> true | _ -> false);
  Alcotest.(check bool) "double dealloc" true
    (match Chunk_store.deallocate cs a with exception Types.Not_allocated _ -> true | _ -> false)

let test_dealloc_never_written () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.deallocate cs a;
  Alcotest.(check bool) "gone" true
    (match Chunk_store.write cs a "x" with exception Types.Not_allocated _ -> true | _ -> false)

let test_abort_batch () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "keep";
  Chunk_store.commit cs;
  Chunk_store.write cs a "discard";
  Chunk_store.abort_batch cs;
  Alcotest.(check string) "old state" "keep" (Chunk_store.read cs a)

let test_chunk_too_large () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Alcotest.(check bool) "too large" true
    (match Chunk_store.write cs a (String.make 8192 'x') with
    | exception Types.Chunk_too_large _ -> true
    | _ -> false)

let test_variable_sizes_roundtrip () =
  let env = fresh_env () in
  let cs = create env in
  let rng = Tdb_crypto.Drbg.create ~seed:"sizes" in
  let ids =
    List.init 60 (fun i ->
        let cid = Chunk_store.allocate cs in
        let data = Tdb_crypto.Drbg.generate rng (i * 17 mod 900) in
        Chunk_store.write cs cid data;
        (cid, data))
  in
  Chunk_store.commit cs;
  List.iter (fun (cid, data) -> Alcotest.(check string) "roundtrip" data (Chunk_store.read cs cid)) ids

(* --- persistence and recovery --- *)

let test_reopen () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "persistent";
  Chunk_store.commit cs;
  Chunk_store.close cs;
  let cs2 = reopen env in
  Alcotest.(check string) "after reopen" "persistent" (Chunk_store.read cs2 a)

let test_crash_before_commit () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "committed";
  Chunk_store.commit cs;
  (* a second write is buffered but never committed *)
  Chunk_store.write cs a "lost";
  Untrusted_store.Mem.crash_hard env.mem;
  let cs2 = reopen env in
  Alcotest.(check string) "old value" "committed" (Chunk_store.read cs2 a)

let test_crash_after_durable_commit () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "v1";
  Chunk_store.commit cs;
  Chunk_store.write cs a "v2";
  Chunk_store.commit ~durable:true cs;
  Untrusted_store.Mem.crash_hard env.mem;
  let cs2 = reopen env in
  Alcotest.(check string) "durable survives" "v2" (Chunk_store.read cs2 a)

let test_nondurable_commit_lost_on_crash () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "v1";
  Chunk_store.commit ~durable:true cs;
  Chunk_store.write cs a "v2";
  Chunk_store.commit ~durable:false cs;
  Untrusted_store.Mem.crash_hard env.mem;
  let cs2 = reopen env in
  Alcotest.(check string) "nondurable rolled back" "v1" (Chunk_store.read cs2 a)

let test_nondurable_then_durable_survives () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  let b = Chunk_store.allocate cs in
  Chunk_store.write cs a "v1";
  Chunk_store.commit ~durable:true cs;
  Chunk_store.write cs a "v2";
  Chunk_store.commit ~durable:false cs;
  Chunk_store.write cs b "other";
  Chunk_store.commit ~durable:true cs;
  Untrusted_store.Mem.crash_hard env.mem;
  let cs2 = reopen env in
  Alcotest.(check string) "nondurable sealed by durable" "v2" (Chunk_store.read cs2 a);
  Alcotest.(check string) "durable" "other" (Chunk_store.read cs2 b)

let test_crash_recovery_randomized () =
  (* Deterministic pseudo-random crash storm: committed state must always
     be recovered exactly; trailing nondurable commits may be lost. *)
  let rng = Tdb_crypto.Drbg.create ~seed:"crashstorm" in
  for round = 1 to 12 do
    let env = fresh_env () in
    let cs = ref (create env) in
    let model : (int, string) Hashtbl.t = Hashtbl.create 16 in
    let committed = Hashtbl.copy model in
    let ids = ref [] in
    for step = 1 to 40 do
      let c = !cs in
      (match Tdb_crypto.Drbg.int rng 10 with
      | 0 when !ids <> [] ->
          (* deallocate a random chunk *)
          let cid = List.nth !ids (Tdb_crypto.Drbg.int rng (List.length !ids)) in
          if Hashtbl.mem model cid then begin
            Chunk_store.deallocate c cid;
            Hashtbl.remove model cid
          end
      | 1 | 2 | 3 ->
          let cid = Chunk_store.allocate c in
          ids := cid :: !ids;
          let data = Tdb_crypto.Drbg.generate rng (Tdb_crypto.Drbg.int rng 300) in
          Chunk_store.write c cid data;
          Hashtbl.replace model cid data
      | _ when !ids <> [] ->
          let cid = List.nth !ids (Tdb_crypto.Drbg.int rng (List.length !ids)) in
          if Hashtbl.mem model cid then begin
            let data = Tdb_crypto.Drbg.generate rng (Tdb_crypto.Drbg.int rng 300) in
            Chunk_store.write c cid data;
            Hashtbl.replace model cid data
          end
      | _ -> ());
      if step mod 5 = 0 then begin
        Chunk_store.commit ~durable:true c;
        Hashtbl.reset committed;
        Hashtbl.iter (fun k v -> Hashtbl.replace committed k v) model
      end
    done;
    (* crash with partial persistence of unsynced writes *)
    Untrusted_store.Mem.crash ~persist_prob:0.5 ~rng:(fun n -> Tdb_crypto.Drbg.int rng n) env.mem;
    let c2 = reopen env in
    Hashtbl.iter
      (fun cid data ->
        Alcotest.(check string) (Printf.sprintf "round %d chunk %d" round cid) data (Chunk_store.read c2 cid))
      committed;
    cs := c2
  done

(* --- IVs: a record's IV is never reused for a different record --- *)

let watched_env () =
  let env = fresh_env () in
  let probe = Iv_probe.create () in
  ({ env with store = Iv_probe.watch probe env.store }, probe)

let check_no_repeated_ivs probe =
  Alcotest.(check bool) (Printf.sprintf "sealed records seen (%d)" (Iv_probe.records probe)) true
    (Iv_probe.records probe >= 4);
  Alcotest.(check int) "repeated IVs" 0 (Iv_probe.repeats probe)

let test_iv_unique_across_reopen () =
  let env, probe = watched_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "first session";
  Chunk_store.commit cs;
  Chunk_store.close cs;
  let cs = reopen env in
  Chunk_store.write cs a "second session";
  Chunk_store.commit cs;
  check_no_repeated_ivs probe

let test_iv_unique_across_crash () =
  let env, probe = watched_env () in
  let cs = create env in
  let ids = List.init 3 (fun _ -> Chunk_store.allocate cs) in
  List.iteri (fun i cid -> Chunk_store.write cs cid (Printf.sprintf "durable-%d" i)) ids;
  Chunk_store.commit cs;
  List.iteri
    (fun i cid ->
      Chunk_store.write cs cid (Printf.sprintf "nondurable-%d" i);
      Chunk_store.commit ~durable:false cs)
    ids;
  let rng = Tdb_crypto.Drbg.create ~seed:"iv-crash" in
  Untrusted_store.Mem.crash ~rng:(fun n -> Tdb_crypto.Drbg.int rng n) env.mem;
  let cs = reopen env in
  List.iteri (fun i cid -> Chunk_store.write cs cid (Printf.sprintf "after-crash-%d" i)) ids;
  Chunk_store.commit cs;
  check_no_repeated_ivs probe

let test_layout_mismatch_rejected () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "x";
  Chunk_store.commit cs;
  Chunk_store.close cs;
  Alcotest.(check bool) "clear error on layout mismatch" true
    (match reopen ~config:(cfg ~segment_size:8192 ()) env with
    | exception Chunk_store.Recovery_failed msg ->
        String.length msg > 6 && String.sub msg 0 6 = "layout"
    | _ -> false)

let test_open_missing_anchor_fails () =
  let env = fresh_env () in
  Alcotest.(check bool) "no anchor" true
    (match reopen env with exception Chunk_store.Recovery_failed _ -> true | _ -> false)

(* --- tamper detection --- *)

let committed_db () =
  let env = fresh_env () in
  let cs = create env in
  let ids =
    List.init 30 (fun i ->
        let cid = Chunk_store.allocate cs in
        Chunk_store.write cs cid (Printf.sprintf "secret-record-%03d" i);
        cid)
  in
  Chunk_store.commit cs;
  Chunk_store.checkpoint cs;
  (env, cs, ids)

let test_tamper_data_detected () =
  let env, cs, ids = committed_db () in
  ignore cs;
  (* flip a bit in every byte of the log body (leaving the anchor intact);
     every surviving read must either return intact data or signal
     tampering — and at least one must signal *)
  let size = Untrusted_store.size env.store in
  Untrusted_store.Mem.corrupt env.mem ~off:4096 ~len:(size - 4096) ~mask:0x20;
  let tampered = ref false in
  (match reopen env with
  | exception Types.Tamper_detected _ -> tampered := true
  | exception Chunk_store.Recovery_failed _ -> tampered := true
  | cs2 ->
      List.iteri
        (fun i cid ->
          match Chunk_store.read cs2 cid with
          | data -> Alcotest.(check string) "clean read intact" (Printf.sprintf "secret-record-%03d" i) data
          | exception Types.Tamper_detected _ -> tampered := true)
        ids);
  Alcotest.(check bool) "tamper signalled somewhere" true !tampered

let test_tamper_single_bit_detected () =
  (* the finest-grained attack: one bit, in the middle of the live data *)
  let env, cs, ids = committed_db () in
  ignore cs;
  Untrusted_store.Mem.corrupt env.mem ~off:(4096 + 300) ~len:1 ~mask:0x01;
  let tampered = ref false in
  (match reopen env with
  | exception Types.Tamper_detected _ -> tampered := true
  | exception Chunk_store.Recovery_failed _ -> tampered := true
  | cs2 ->
      List.iter
        (fun cid ->
          match Chunk_store.read cs2 cid with
          | _ -> ()
          | exception Types.Tamper_detected _ -> tampered := true)
        ids);
  Alcotest.(check bool) "single bit flip detected" true !tampered

let test_tamper_anchor_detected () =
  let env, cs, _ = committed_db () in
  ignore cs;
  (* corrupt both anchor slots: open must fail, not silently start empty *)
  Untrusted_store.Mem.corrupt env.mem ~off:0 ~len:4096 ~mask:0xff;
  Alcotest.(check bool) "anchor gone" true
    (match reopen env with
    | exception Chunk_store.Recovery_failed _ -> true
    | exception Types.Tamper_detected _ -> true
    | _ -> false)

let test_replay_attack_detected () =
  (* the paper's canonical attack: save the database, spend, restore *)
  let env = fresh_env () in
  let cs = create env in
  let balance = Chunk_store.allocate cs in
  Chunk_store.write cs balance "balance=100";
  Chunk_store.commit cs;
  Chunk_store.close cs;
  let saved = Untrusted_store.Mem.snapshot env.mem in
  let cs = reopen env in
  Chunk_store.write cs balance "balance=0";
  Chunk_store.commit cs;
  Chunk_store.close cs;
  (* attacker restores the old image; one-way counter has moved on *)
  Untrusted_store.Mem.restore env.mem saved;
  Alcotest.(check bool) "replay detected" true
    (match reopen env with exception Types.Tamper_detected _ -> true | _ -> false)

let test_counter_rollback_detected () =
  (* A rollback of exactly one step is indistinguishable from the legal
     crash-between-sync-and-increment window and gets repaired; any larger
     rollback of the (supposedly one-way) counter must be flagged. *)
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  for i = 1 to 3 do
    Chunk_store.write cs a (string_of_int i);
    Chunk_store.commit cs
  done;
  Chunk_store.close cs;
  One_way_counter.Mem.rollback env.ctr_h 0L;
  Alcotest.(check bool) "rollback detected" true
    (match reopen env with exception Types.Tamper_detected _ -> true | _ -> false)

let test_counter_one_behind_repaired () =
  (* the legal crash window: counter one behind the database is repaired *)
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "v";
  Chunk_store.commit cs;
  Chunk_store.close cs;
  let v = One_way_counter.read env.ctr in
  One_way_counter.Mem.rollback env.ctr_h (Int64.sub v 1L);
  let cs2 = reopen env in
  Alcotest.(check string) "state intact" "v" (Chunk_store.read cs2 a);
  Alcotest.(check int64) "counter repaired" v (One_way_counter.read env.ctr)

let test_exhaustive_bitflip_sweep () =
  (* The core security claim, certified by brute force: flipping ANY single
     bit anywhere in the stored image must never let a read return wrong
     data — every flip is either harmless (hits garbage or a slack region;
     reads return the original values) or raises Tamper_detected /
     Recovery_failed. *)
  let env = fresh_env () in
  let config = cfg ~segment_size:2048 ~initial_segments:4 () in
  let cs = create ~config env in
  let ids =
    List.init 12 (fun i ->
        let cid = Chunk_store.allocate cs in
        Chunk_store.write cs cid (Printf.sprintf "value-%04d" i);
        cid)
  in
  Chunk_store.commit cs;
  Chunk_store.close cs;
  let pristine = Untrusted_store.Mem.snapshot env.mem in
  let size = Bytes.length pristine in
  let detected = ref 0 and harmless = ref 0 and silent = ref 0 in
  let stride = 3 in
  let pos = ref 0 in
  while !pos < size do
    Untrusted_store.Mem.corrupt env.mem ~off:!pos ~len:1 ~mask:0x10;
    (match reopen ~config env with
    | exception (Types.Tamper_detected _ | Chunk_store.Recovery_failed _) -> incr detected
    | cs2 -> (
        match
          List.iteri
            (fun i cid ->
              if Chunk_store.read cs2 cid <> Printf.sprintf "value-%04d" i then raise Exit)
            ids
        with
        | () -> incr harmless
        | exception (Types.Tamper_detected _ | Chunk_store.Recovery_failed _) -> incr detected
        | exception Exit -> incr silent ));
    Untrusted_store.Mem.restore env.mem pristine;
    pos := !pos + stride
  done;
  Alcotest.(check int) "no silent corruption anywhere in the image" 0 !silent;
  Alcotest.(check bool) "flips in live data are detected" true (!detected > 0);
  Alcotest.(check bool) "flips in garbage are harmless" true (!harmless > 0)

(* --- read-only verify --- *)

(* A database whose one-way counter also lives in a byte image, so a test
   can compare both images around a call. *)
type images = {
  db : Untrusted_store.Mem.handle;
  db_store : Untrusted_store.t;
  ctr_img : Untrusted_store.Mem.handle;
  counter : One_way_counter.t;
}

let image_env () =
  let db, db_store = Untrusted_store.open_mem () in
  let ctr_img, ctr_store = Untrusted_store.open_mem () in
  { db; db_store; ctr_img; counter = One_way_counter.open_store ctr_store }

let test_secret = Secret_store.of_seed "test-device"
let image_bytes im = (Untrusted_store.Mem.contents im.db, Untrusted_store.Mem.contents im.ctr_img)
let verify_images ~config im = Chunk_store.verify ~config ~secret:test_secret ~counter:im.counter im.db_store
let open_images ~config im = Chunk_store.open_existing ~config ~secret:test_secret ~counter:im.counter im.db_store

(* [Some chunk_count] when the check passes, [None] when it refuses. *)
let verdict f = match f () with n -> Some n | exception (Types.Tamper_detected _ | Chunk_store.Recovery_failed _) -> None
let verify_verdict ~config im = verdict (fun () -> snd (verify_images ~config im))

(* The reference verdict: open, then read every live chunk. *)
let open_verdict ~config im =
  verdict (fun () ->
      let cs = open_images ~config im in
      let ids = Chunk_store.live_ids cs in
      List.iter (fun cid -> ignore (Chunk_store.read cs cid)) ids;
      List.length ids)

let test_verify_writes_nothing () =
  let config = cfg () in
  let im = image_env () in
  let cs = Chunk_store.create ~config ~secret:test_secret ~counter:im.counter im.db_store in
  List.iter (fun i -> let cid = Chunk_store.allocate cs in Chunk_store.write cs cid (Printf.sprintf "chunk-%02d" i)) (List.init 50 Fun.id);
  Chunk_store.commit cs;
  Chunk_store.close cs;
  let st = Untrusted_store.stats im.db_store in
  let before = image_bytes im and writes = st.Untrusted_store.writes and syncs = st.Untrusted_store.syncs in
  let r, n = verify_images ~config im in
  Alcotest.(check int) "every chunk" 50 n;
  Alcotest.(check (pair int int)) "nothing to replay on a closed store" (0, 0) (r.Chunk_store.replayed, r.dropped);
  Alcotest.(check bool) "counter in step" false r.counter_behind;
  Alcotest.(check (pair string string)) "images unchanged" before (image_bytes im);
  Alcotest.(check (pair int int)) "no write or sync" (writes, syncs) (st.writes, st.syncs);
  (* the counter one behind (a crash between a durable sync and its
     increment): verify reports the repair and leaves it, open makes it *)
  let cs = open_images ~config im in
  let behind = Untrusted_store.Mem.snapshot im.ctr_img in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "after";
  Chunk_store.commit cs;
  Chunk_store.close cs;
  let v = One_way_counter.read im.counter in
  Untrusted_store.Mem.restore im.ctr_img behind;
  Alcotest.(check int64) "counter one behind" (Int64.pred v) (One_way_counter.read im.counter);
  let before = image_bytes im in
  let r, n = verify_images ~config im in
  Alcotest.(check int) "every chunk, one behind" 51 n;
  Alcotest.(check bool) "repair reported" true r.counter_behind;
  Alcotest.(check (pair string string)) "images unchanged, one behind" before (image_bytes im);
  let cs = open_images ~config im in
  Alcotest.(check int64) "open repairs the counter" v (One_way_counter.read im.counter);
  Alcotest.(check string) "state intact" "after" (Chunk_store.read cs a)

(* The report counts what recovery replays and what it drops: two durable
   commits and a nondurable one, all of which reached the media. *)
let test_verify_reports_replay () =
  let config = cfg () in
  let im = image_env () in
  let cs = Chunk_store.create ~config ~secret:test_secret ~counter:im.counter im.db_store in
  List.iter
    (fun durable ->
      let cid = Chunk_store.allocate cs in
      Chunk_store.write cs cid "v";
      Chunk_store.commit ~durable cs)
    [ true; true; false ];
  Untrusted_store.Mem.crash ~persist_prob:1.0 ~rng:(fun _ -> 0) im.db;
  let before = image_bytes im in
  let r, n = verify_images ~config im in
  Alcotest.(check (pair int int)) "two replayed, one dropped" (2, 1) (r.Chunk_store.replayed, r.dropped);
  Alcotest.(check int) "durable chunks" 2 n;
  Alcotest.(check (pair string string)) "images unchanged" before (image_bytes im);
  Alcotest.(check int) "open keeps the same chunks" 2 (List.length (Chunk_store.live_ids (open_images ~config im)))

(* Flip every 7th byte of a closed image: verify refuses exactly where
   open-then-read-everything does, and agrees on the count elsewhere. *)
let test_verify_agrees_on_bitflips () =
  let config = cfg ~segment_size:2048 ~initial_segments:4 () in
  let im = image_env () in
  let cs = Chunk_store.create ~config ~secret:test_secret ~counter:im.counter im.db_store in
  let ids = List.init 12 (fun _ -> Chunk_store.allocate cs) in
  List.iteri (fun i cid -> Chunk_store.write cs cid (Printf.sprintf "value-%04d" i)) ids;
  Chunk_store.commit cs;
  List.iteri (fun i cid -> if i mod 3 = 0 then Chunk_store.write cs cid "rewritten") ids;
  Chunk_store.commit cs;
  Chunk_store.close cs;
  let pristine = Untrusted_store.Mem.snapshot im.db and ctr = Untrusted_store.Mem.snapshot im.ctr_img in
  let refused = ref 0 and pos = ref 0 in
  while !pos < Bytes.length pristine do
    Untrusted_store.Mem.corrupt im.db ~off:!pos ~len:1 ~mask:0x10;
    let v = verify_verdict ~config im in
    if Option.is_none v then incr refused;
    Alcotest.(check (option int)) (Printf.sprintf "flip at %d" !pos) (open_verdict ~config im) v;
    Untrusted_store.Mem.restore im.db pristine;
    Untrusted_store.Mem.restore im.ctr_img ctr;
    pos := !pos + 7
  done;
  Alcotest.(check bool) "some flips refused" true (!refused > 0)

(* Honest crash images always pass verify, with open's chunk count. *)
let test_verify_passes_honest_crashes () =
  let config = cfg ~segment_size:2048 ~initial_segments:4 () in
  let im = image_env () in
  let cs = Chunk_store.create ~config ~secret:test_secret ~counter:im.counter im.db_store in
  let rng = Random.State.make [| 39 |] in
  let ids = Array.init 8 (fun _ -> Chunk_store.allocate cs) in
  for txn = 1 to 60 do
    for _ = 1 to 1 + Random.State.int rng 3 do
      let cid = ids.(Random.State.int rng (Array.length ids)) in
      Chunk_store.write cs cid (Printf.sprintf "txn-%d-%s" txn (String.make (Random.State.int rng 200) 'x'))
    done;
    Chunk_store.commit ~durable:(txn mod 3 <> 0) cs;
    cadence ~every:8 cs txn;
    let db, db_store = Untrusted_store.Mem.clone im.db and ctr_img, ctr_store = Untrusted_store.Mem.clone im.ctr_img in
    Untrusted_store.Mem.crash ~rng:(Random.State.int rng) db;
    Untrusted_store.Mem.crash ~rng:(Random.State.int rng) ctr_img;
    let crashed = { db; db_store; ctr_img; counter = One_way_counter.open_store ctr_store } in
    let v = verify_verdict ~config crashed in
    Alcotest.(check bool) (Printf.sprintf "txn %d image passes" txn) true (Option.is_some v);
    Alcotest.(check (option int)) (Printf.sprintf "txn %d count" txn) (open_verdict ~config crashed) v
  done

(* Truncate a store that has grown past its initial segments, with a live
   residual log, at every 509th byte: verify and open reach the same
   verdict, and neither a verify nor a refused open changes the store's
   size. *)
let test_verify_agrees_on_truncation () =
  let config = cfg ~segment_size:2048 ~initial_segments:4 () in
  let im = image_env () in
  let cs = Chunk_store.create ~config ~secret:test_secret ~counter:im.counter im.db_store in
  let ids = List.init 30 (fun _ -> Chunk_store.allocate cs) in
  List.iteri (fun i cid -> Chunk_store.write cs cid (Printf.sprintf "%03d-%s" i (String.make 600 'v'))) ids;
  Chunk_store.commit cs;
  List.iteri (fun i cid -> if i mod 3 = 0 then Chunk_store.write cs cid "rewritten") ids;
  Chunk_store.commit cs;
  let pristine = Untrusted_store.Mem.snapshot im.db and ctr = Untrusted_store.Mem.snapshot im.ctr_img in
  let full = Bytes.length pristine in
  Alcotest.(check bool) "grown past the initial segments" true (full > 2048 * (2 + 4));
  let passed = ref 0 and refused = ref 0 in
  List.iter
    (fun n ->
      Untrusted_store.Mem.restore im.db (Bytes.sub pristine 0 n);
      Untrusted_store.Mem.restore im.ctr_img ctr;
      let v = verify_verdict ~config im in
      Alcotest.(check int) (Printf.sprintf "verify keeps size %d" n) n (Untrusted_store.size im.db_store);
      let o = open_verdict ~config im in
      if Option.is_none o then
        Alcotest.(check int) (Printf.sprintf "refused open keeps size %d" n) n (Untrusted_store.size im.db_store);
      Alcotest.(check (option int)) (Printf.sprintf "truncated to %d" n) o v;
      incr (if Option.is_some v then passed else refused))
    (List.init ((full / 509) + 1) (fun i -> i * 509) @ [ full ]);
  Alcotest.(check bool) "some truncations pass, some are refused" true (!passed > 0 && !refused > 0)

let test_no_plaintext_on_media () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  let secret = "TOP-SECRET-CONTENT-KEY-0xDEADBEEF" in
  Chunk_store.write cs a secret;
  Chunk_store.commit cs;
  Chunk_store.checkpoint cs;
  let image = Untrusted_store.Mem.contents env.mem in
  (* the secret must not appear in the raw image (encrypted storage) *)
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no plaintext" false (contains image secret)

let test_plaintext_visible_without_security () =
  let env = fresh_env () in
  let cs = create ~config:(cfg ~security:false ()) env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "VISIBLE-WITHOUT-SECURITY";
  Chunk_store.commit cs;
  let image = Untrusted_store.Mem.contents env.mem in
  Alcotest.(check bool) "plaintext there" true (contains image "VISIBLE-WITHOUT-SECURITY");
  (* and the counter is never touched in this mode *)
  Alcotest.(check int64) "counter untouched" 0L (One_way_counter.read env.ctr)

(* --- cleaning and utilization --- *)

let churn ?(every = max_int) cs ~rounds ~chunks ~size =
  let ids = Array.init chunks (fun _ -> Chunk_store.allocate cs) in
  Array.iter (fun cid -> Chunk_store.write cs cid (String.make size 'i')) ids;
  Chunk_store.commit cs;
  for r = 1 to rounds do
    Array.iteri (fun i cid -> if (i + r) mod 3 = 0 then Chunk_store.write cs cid (String.make size 'u')) ids;
    Chunk_store.commit cs;
    cadence ~every cs (r + 1)
  done;
  ids

let test_cleaning_reclaims_space () =
  (* Fragmentation workload: long-lived chunks pepper every segment while
     short-lived neighbours churn, so segments never empty on their own and
     only the cleaner can reclaim them. *)
  let env = fresh_env () in
  let config = cfg ~segment_size:4096 ~initial_segments:8 ~max_utilization:0.8 () in
  let cs = create ~config env in
  let stable = Array.init 40 (fun _ -> Chunk_store.allocate cs) in
  let hot = Array.init 20 (fun _ -> Chunk_store.allocate cs) in
  for r = 0 to 79 do
    if r = 0 then Array.iteri (fun i cid -> Chunk_store.write cs cid (Printf.sprintf "stable-%03d" i)) stable;
    Array.iter (fun cid -> Chunk_store.write cs cid (String.make 150 (Char.chr (Char.code 'a' + (r mod 26))))) hot;
    Chunk_store.commit cs;
    cadence ~every:8 cs (r + 1)
  done;
  let st = Chunk_store.stats cs in
  Alcotest.(check bool) "cleaner ran" true (st.Chunk_store.clean_passes > 0);
  Alcotest.(check bool) "chunks relocated" true (st.Chunk_store.chunks_relocated > 0);
  Array.iteri
    (fun i cid -> Alcotest.(check string) "stable intact" (Printf.sprintf "stable-%03d" i) (Chunk_store.read cs cid))
    stable;
  Array.iter (fun cid -> Alcotest.(check int) "hot intact" 150 (String.length (Chunk_store.read cs cid))) hot;
  Alcotest.(check bool) "utilization bounded" true (Chunk_store.utilization cs < 0.95)

let test_cleaning_survives_reopen () =
  let env = fresh_env () in
  let config = cfg ~segment_size:4096 ~initial_segments:8 ~max_utilization:0.8 () in
  let cs = create ~config env in
  let ids = churn ~every:8 cs ~rounds:40 ~chunks:30 ~size:120 in
  Chunk_store.close cs;
  let cs2 = reopen ~config env in
  Array.iter
    (fun cid ->
      let v = Chunk_store.read cs2 cid in
      Alcotest.(check bool) "intact" true (String.length v = 120))
    ids

let test_low_utilization_grows_instead () =
  let env = fresh_env () in
  let config = cfg ~segment_size:4096 ~initial_segments:8 ~max_utilization:0.3 () in
  let cs = create ~config env in
  ignore (churn cs ~rounds:30 ~chunks:30 ~size:100);
  let low_size = Chunk_store.capacity cs in
  let env2 = fresh_env () in
  let config2 = cfg ~segment_size:4096 ~initial_segments:8 ~max_utilization:0.9 () in
  let cs2 = create ~config:config2 env2 in
  ignore (churn cs2 ~rounds:30 ~chunks:30 ~size:100);
  let high_size = Chunk_store.capacity cs2 in
  Alcotest.(check bool)
    (Printf.sprintf "db smaller at high utilization (%d < %d)" high_size low_size)
    true (high_size <= low_size)

let test_explicit_idle_clean () =
  let env = fresh_env () in
  let config = cfg ~segment_size:4096 ~initial_segments:16 ~max_utilization:0.9 () in
  let cs = create ~config env in
  ignore (churn cs ~rounds:20 ~chunks:20 ~size:200);
  Chunk_store.checkpoint cs;
  let before = Chunk_store.live_bytes cs in
  Chunk_store.clean cs;
  (* cleaning moves data, it must not create or destroy live bytes (small
     slack: rewritten map nodes can change size by a few entries) *)
  Alcotest.(check bool) "live bytes preserved by cleaning" true
    (abs (Chunk_store.live_bytes cs - before) < 1024);
  Alcotest.(check bool) "cleaned" true ((Chunk_store.stats cs).Chunk_store.segments_cleaned > 0)

let test_clean_lowest_utilization_first () =
  (* One commit per cohort of four quarter-segment chunks, so cohort k
     fills segment k exactly; a sloped deallocation pattern then leaves
     segment k with k+1 live chunks. Cleaning one segment at a time must
     harvest the emptiest first, so successive per-pass relocation counts
     never decrease — the observable signature of lowest-utilization-first
     candidate order. *)
  let env = fresh_env () in
  let config = cfg ~segment_size:8192 ~initial_segments:12 ~max_utilization:0.95 () in
  let cs = create ~config env in
  let ids = Array.init 16 (fun _ -> Chunk_store.allocate cs) in
  for k = 0 to 3 do
    for j = 0 to 3 do
      let i = (4 * k) + j in
      Chunk_store.write cs ids.(i) (Printf.sprintf "%04d:%s" i (String.make 1750 'd'))
    done;
    Chunk_store.commit cs
  done;
  (* cohort k = chunks [4k .. 4k+3]: drop 3 from cohort 0, 2 from cohort 1,
     1 from cohort 2, none from cohort 3 *)
  for k = 0 to 2 do
    for j = 0 to 2 - k do
      Chunk_store.deallocate cs ids.((4 * k) + j)
    done
  done;
  Chunk_store.commit cs;
  Chunk_store.checkpoint cs;
  let per_pass = ref [] in
  for _ = 1 to 3 do
    let before = (Chunk_store.stats cs).Chunk_store.segments_cleaned in
    let rel_before = (Chunk_store.stats cs).Chunk_store.chunks_relocated in
    Chunk_store.clean ~max_segments:1 cs;
    Alcotest.(check int) "one segment per pass" (before + 1)
      (Chunk_store.stats cs).Chunk_store.segments_cleaned;
    per_pass := ((Chunk_store.stats cs).Chunk_store.chunks_relocated - rel_before) :: !per_pass
  done;
  (match List.rev !per_pass with
  | [ a; b; c ] ->
      Alcotest.(check bool)
        (Printf.sprintf "relocation work never decreases (%d <= %d <= %d)" a b c)
        true (a <= b && b <= c);
      Alcotest.(check bool) (Printf.sprintf "emptiest strictly first (%d < %d)" a c) true (a < c)
  | _ -> Alcotest.fail "expected three passes");
  (* survivors all intact *)
  for k = 0 to 3 do
    for j = (if k <= 2 then 3 - k else 0) to 3 do
      let i = (4 * k) + j in
      Alcotest.(check string) "survivor intact"
        (Printf.sprintf "%04d:%s" i (String.make 1750 'd'))
        (Chunk_store.read cs ids.(i))
    done
  done

(* (segment, payload offset, stored length) of every data record on the
   store whose plaintext contains [needle], stale copies included. *)
let records_holding env config needle =
  let log = Log.create env.store config in
  let sec = Security.create config env.secret in
  let nsegs = (Untrusted_store.size env.store - log.Log.log_base) / config.Config.segment_size in
  let holds (kind, _, stored) =
    match (kind, Security.unseal sec stored) with
    | Types.Data_chunk, plain -> contains plain needle
    | _ -> false
    | exception Types.Tamper_detected _ -> false
  in
  List.concat_map
    (fun seg ->
      List.filter_map
        (fun ((_, poff, stored) as r) -> if holds r then Some (seg, poff, String.length stored) else None)
        (Log.scan_segment log seg))
    (List.init nsegs Fun.id)

let locate_record env config needle =
  match records_holding env config needle with
  | [ r ] -> r
  | l -> Alcotest.failf "%d records hold %S" (List.length l) needle

(* The cleaner identifies a record from its leading cipher blocks alone.
   Under each cipher (16- and 8-byte blocks) and with security off, a
   chunk whose id takes a 4-byte varint must be relocated out of its
   segment (a record the cleaner fails to identify is skipped and pins
   its segment), and every chunk must read back intact across a reopen. *)
let test_clean_every_cipher () =
  List.iter
    (fun (name, config) ->
      let config = { config with Config.initial_segments = 32; max_utilization = 0.9 } in
      let env = fresh_env () in
      let cs = create ~config env in
      let expect = Hashtbl.create 32 in
      let write cid data =
        Chunk_store.write cs cid data;
        Hashtbl.replace expect cid data
      in
      let ids = Array.init 24 (fun _ -> Chunk_store.allocate cs) in
      let high = (1 lsl 21) + 7 in
      Chunk_store.restore_chunk cs high "high-id chunk";
      Hashtbl.replace expect high "high-id chunk";
      Array.iteri (fun i cid -> write cid (Printf.sprintf "%02d:%s" i (String.make 150 'i'))) ids;
      Chunk_store.commit cs;
      for r = 1 to 10 do
        Array.iteri
          (fun i cid -> if (i + r) mod 3 = 0 then write cid (Printf.sprintf "%02d/%02d:%s" i r (String.make 150 'u')))
          ids;
        Chunk_store.commit cs;
        cadence ~every:8 cs (r + 1)
      done;
      Alcotest.(check int) (name ^ ": no cleaning before the explicit pass") 0 (Chunk_store.stats cs).Chunk_store.clean_passes;
      let seg, _, _ = locate_record env config "high-id chunk" in
      Chunk_store.clean cs;
      Alcotest.(check bool) (name ^ ": chunks relocated") true ((Chunk_store.stats cs).Chunk_store.chunks_relocated > 0);
      Alcotest.(check bool) (name ^ ": wide-id chunk relocated") true
        (List.exists (fun (s, _, _) -> s <> seg) (records_holding env config "high-id chunk"));
      Chunk_store.close cs;
      let cs = reopen ~config env in
      Hashtbl.iter
        (fun cid data -> Alcotest.(check string) (Printf.sprintf "%s: chunk %d" name cid) data (Chunk_store.read cs cid))
        expect)
    [
      ("aes128", { (cfg ()) with Config.cipher = Config.Aes128 });
      ("3aes", { (cfg ()) with Config.cipher = Config.Triple_aes });
      ("3xtea", { (cfg ()) with Config.cipher = Config.Triple_xtea });
      ("security off", cfg ~security:false ());
    ]

(* Store offset of byte [off] of log segment [seg]. *)
let log_offset config ~seg ~off = (2 * config.Config.anchor_slot_size) + (seg * config.Config.segment_size) + off

(* Overwrite the record at [(seg, poff)] in place with a well-formed
   [kind] record of the same stored length, sealed under the store's key;
   [payload fill] must encode [fill] filler bytes in [fill] + a constant. *)
let forge_record env config ~seg ~poff ~stored_len kind (payload : int -> string) =
  let sec = Security.create config env.secret in
  Security.start_session sec env.secret ~counter:99L ~epoch:99;
  let n = match sec.Security.cipher with None -> stored_len | Some c -> stored_len - Tdb_crypto.Cbc.block_size c - 1 in
  let plain = payload (n - String.length (payload 0)) in
  let sealed = Security.seal sec plain in
  Alcotest.(check int) "forged record fills the slot" stored_len (String.length sealed);
  let off = log_offset config ~seg ~off:(poff - Log.header_size) in
  Untrusted_store.write env.store ~off (raw_header (Types.kind_to_byte kind) stored_len ^ sealed)

(* Records on the store are untrusted input to the cleaner. One sealed
   under the store's key whose leading varint claims an id the map cannot
   hold (a chunk id past its capacity, a node level equal to its depth)
   is garbage: [clean] skips it without raising and every live chunk
   reads back. A live record damaged past its leading blocks is relocated
   verbatim under its old hash, so its next read signals tampering. *)
let test_clean_skips_forged_ids () =
  let module P = Tdb_pickle.Pickle in
  let encode f =
    let w = P.writer () in
    f w;
    P.contents w
  in
  let { Config.map_fanout = fanout; map_depth = depth; _ } = Config.default in
  let capacity = Location_map.capacity (Location_map.create ~fanout ~depth) in
  let forged_cid fill =
    encode (fun w ->
        P.uint w (capacity + 5);
        P.uint w 0;
        P.string w (String.make fill 'f'))
  in
  let forged_level fill =
    encode (fun w ->
        P.uint w depth;
        P.uint w 0;
        P.list w
          (fun w hash ->
            P.uint w 0;
            Location_map.write_entry w { Types.seg = 0; off = 0; len = 0; hash; version = 0 })
          [ String.make fill 'h' ])
  in
  let live_data i = Printf.sprintf "live-%02d:%s" i (String.make 200 'l') in
  let run ~security what damage =
    let config =
      { (cfg ~security ~initial_segments:16 ~max_utilization:0.9 ()) with
        Config.chunk_cache_bytes = 0 }
    in
    let env = fresh_env () in
    let cs = create ~config env in
    let ids = Array.init 8 (fun _ -> Chunk_store.allocate cs) in
    let victim = Chunk_store.allocate cs in
    Chunk_store.write cs victim "victim-old";
    Array.iteri (fun i cid -> Chunk_store.write cs cid (live_data i)) ids;
    Chunk_store.commit cs;
    (* move the tail off the victim's segment, so it is cleanable *)
    let filler = Array.init 6 (fun _ -> Chunk_store.allocate cs) in
    Array.iter (fun cid -> Chunk_store.write cs cid (String.make 1500 'z')) filler;
    Chunk_store.write cs victim "victim-new";
    Chunk_store.commit cs;
    Chunk_store.checkpoint cs;
    let tampered = damage env config in
    Chunk_store.clean cs;
    let st = Chunk_store.stats cs in
    Alcotest.(check bool) (what ^ ": cleaned") true (st.Chunk_store.segments_cleaned > 0 && st.Chunk_store.chunks_relocated > 0);
    let check cs =
      Array.iteri
        (fun i cid ->
          match Chunk_store.read cs cid with
          | data -> Alcotest.(check string) (what ^ ": live chunk") (live_data i) data
          | exception Types.Tamper_detected _ ->
              Alcotest.(check bool) (what ^ ": only the damaged chunk signals") true (Some i = tampered))
        ids;
      Alcotest.(check string) (what ^ ": victim") "victim-new" (Chunk_store.read cs victim);
      Array.iter (fun cid -> Alcotest.(check int) (what ^ ": filler") 1500 (String.length (Chunk_store.read cs cid))) filler
    in
    check cs;
    (match tampered with
    | Some i ->
        Alcotest.(check bool) (what ^ ": damaged chunk signals") true
          (match Chunk_store.read cs ids.(i) with _ -> false | exception Types.Tamper_detected _ -> true)
    | None -> ());
    Chunk_store.close cs;
    check (reopen ~config env)
  in
  let forge kind payload env config =
    let seg, poff, stored_len = locate_record env config "victim-old" in
    forge_record env config ~seg ~poff ~stored_len kind payload;
    None
  in
  List.iter
    (fun security ->
      let mode = if security then "sealed" else "plain" in
      run ~security (mode ^ " cid past capacity") (forge Types.Data_chunk forged_cid);
      run ~security (mode ^ " map level at depth") (forge Types.Map_node forged_level))
    [ true; false ];
  run ~security:true "damaged live record" (fun env config ->
      let seg, poff, stored_len = locate_record env config "live-03" in
      Untrusted_store.Mem.corrupt env.mem ~off:(log_offset config ~seg ~off:(poff + stored_len - 1)) ~len:1 ~mask:0x01;
      Some 3)

(* --- snapshots and diffs --- *)

(* Every chunk of a snapshot, ascending: a diff from no base. *)
let snapshot_contents cs snap =
  let acc = ref [] in
  Chunk_store.diff_snapshots cs ~old_id:None ~new_id:snap
    ~changed:(fun cid data -> acc := (cid, data) :: !acc)
    ~removed:(fun cid -> Alcotest.failf "a diff from no base removed chunk %d" cid);
  List.rev !acc

let test_snapshot_isolation () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "old";
  Chunk_store.commit cs;
  let snap = Chunk_store.snapshot cs in
  Chunk_store.write cs a "new";
  Chunk_store.commit cs;
  let contents = snapshot_contents cs snap in
  Alcotest.(check (list (pair int string))) "snapshot sees old" [ (a, "old") ] contents;
  Alcotest.(check string) "live sees new" "new" (Chunk_store.read cs a);
  Chunk_store.release_snapshot cs snap

let test_snapshot_diff () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  let b = Chunk_store.allocate cs in
  let c = Chunk_store.allocate cs in
  Chunk_store.write cs a "a1";
  Chunk_store.write cs b "b1";
  Chunk_store.write cs c "c1";
  Chunk_store.commit cs;
  let s1 = Chunk_store.snapshot cs in
  Chunk_store.write cs b "b2";
  Chunk_store.deallocate cs c;
  let d = Chunk_store.allocate cs in
  Chunk_store.write cs d "d1";
  Chunk_store.commit cs;
  let s2 = Chunk_store.snapshot cs in
  let changed = ref [] and removed = ref [] in
  Chunk_store.diff_snapshots cs ~old_id:(Some s1) ~new_id:s2
    ~changed:(fun cid data -> changed := (cid, data) :: !changed)
    ~removed:(fun cid -> removed := cid :: !removed);
  Alcotest.(check (list (pair int string))) "changed" [ (b, "b2"); (d, "d1") ] (List.sort compare !changed);
  Alcotest.(check (list int)) "removed" [ c ] !removed;
  Chunk_store.release_snapshot cs s1;
  Chunk_store.release_snapshot cs s2

let test_snapshot_survives_reopen () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "snapped";
  Chunk_store.commit cs;
  let snap = Chunk_store.snapshot cs in
  Chunk_store.write cs a "moved on";
  Chunk_store.commit cs;
  Chunk_store.close cs;
  let cs2 = reopen env in
  let contents = snapshot_contents cs2 snap in
  Alcotest.(check (list (pair int string))) "snapshot persisted" [ (a, "snapped") ] contents;
  Chunk_store.release_snapshot cs2 snap

let test_snapshot_protects_from_cleaner () =
  let env = fresh_env () in
  let config = cfg ~segment_size:4096 ~initial_segments:8 ~max_utilization:0.85 () in
  let cs = create ~config env in
  let ids = Array.init 20 (fun _ -> Chunk_store.allocate cs) in
  Array.iteri (fun i cid -> Chunk_store.write cs cid (Printf.sprintf "orig-%d" i)) ids;
  Chunk_store.commit cs;
  let snap = Chunk_store.snapshot cs in
  (* churn hard so the cleaner wants those segments *)
  for r = 1 to 50 do
    Array.iter (fun cid -> Chunk_store.write cs cid (Printf.sprintf "new-%d" r)) ids;
    Chunk_store.commit cs;
    cadence ~every:16 cs r
  done;
  let contents = List.map snd (snapshot_contents cs snap) in
  Alcotest.(check int) "all snapshot chunks readable" 20 (List.length contents);
  List.iter (fun d -> Alcotest.(check bool) "original data" true (String.length d >= 6 && String.sub d 0 4 = "orig")) contents;
  Chunk_store.release_snapshot cs snap

(* --- checkpoint cadence --- *)

(* Commits alone never checkpoint: the residual log does, once it reaches
   [checkpoint_residual_bytes] (16 KiB here). *)
let test_periodic_checkpoint () =
  let env = fresh_env () in
  let cs = create ~config:(cfg ()) env in
  let a = Chunk_store.allocate cs in
  let checkpoints () = (Chunk_store.stats cs).Chunk_store.checkpoints in
  for i = 1 to 12 do
    Chunk_store.write cs a (string_of_int i);
    Chunk_store.commit cs
  done;
  Alcotest.(check int) "12 small commits: no checkpoint" 0 (checkpoints ());
  for i = 1 to 12 do
    Chunk_store.write cs a (String.make 3000 (Char.chr (96 + i)));
    Chunk_store.commit cs
  done;
  Alcotest.(check int) "36 KiB of residual log: two checkpoints" 2 (checkpoints ())

(* --- verified-chunk read cache --- *)

let cache_counters cs =
  let st = Chunk_store.stats cs in
  (st.Chunk_store.cache_hits, st.Chunk_store.cache_misses, st.Chunk_store.cache_evictions)

(* The crypto work of one fixed durable commit, counted exactly: three
   chunk writes (100, 200 and 300 bytes) sealed and labelled, the commit
   record sealed, and one commit-chain MAC; nothing unsealed. A change to
   a kernel leaves these counts alone; a change to what a commit seals,
   hashes or MACs moves them. *)
let test_security_counts () =
  let env = fresh_env () in
  let cs = create env in
  let ids = List.init 3 (fun _ -> Chunk_store.allocate cs) in
  Chunk_store.commit ~durable:true cs;
  let counts () =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Metrics.Int n when String.length name > 9 && String.equal (String.sub name 0 9) "security." -> Some (name, n)
        | _ -> None)
      (Chunk_store.metrics cs)
  in
  let before = counts () in
  List.iteri (fun i cid -> Chunk_store.write cs cid (String.make (100 * (i + 1)) (Char.chr (0x61 + i)))) ids;
  Chunk_store.commit ~durable:true cs;
  let delta = List.map2 (fun (name, a) (_, b) -> Printf.sprintf "%s=%d" name (b - a)) before (counts ()) in
  Alcotest.(check (list string)) "security.* of one durable commit"
    [
      "security.seals=4"; "security.seal_bytes=740"; "security.unseals=0"; "security.unseal_bytes=0";
      "security.prefixes=0"; "security.prefix_bytes=0"; "security.labels=3"; "security.label_bytes=688";
      "security.macs=1"; "security.mac_bytes=127";
    ]
    delta

let test_cache_hits_after_commit () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "payload";
  Chunk_store.commit cs;
  (* commit write-through seeds the cache: both reads hit *)
  Alcotest.(check string) "read 1" "payload" (Chunk_store.read cs a);
  Alcotest.(check string) "read 2" "payload" (Chunk_store.read cs a);
  let hits, misses, _ = cache_counters cs in
  Alcotest.(check int) "hits" 2 hits;
  Alcotest.(check int) "misses" 0 misses;
  Alcotest.(check int) "resident" 1 (Chunk_store.cache_resident cs)

let test_cache_read_after_write_coherence () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "v1";
  Chunk_store.commit cs;
  Alcotest.(check string) "v1" "v1" (Chunk_store.read cs a);
  (* pending overwrite is visible before commit (bypasses the cache) *)
  Chunk_store.write cs a "v2";
  Alcotest.(check string) "pending v2" "v2" (Chunk_store.read cs a);
  Chunk_store.commit cs;
  (* the commit writes v2 through at its new version: a hit *)
  let hits0, _, _ = cache_counters cs in
  Alcotest.(check string) "committed v2" "v2" (Chunk_store.read cs a);
  Alcotest.(check int) "read-after-write hits" (hits0 + 1) (match cache_counters cs with h, _, _ -> h);
  Alcotest.(check int) "one version resident" 1 (Chunk_store.cache_resident cs);
  (* an aborted batch must not poison the cache *)
  Chunk_store.write cs a "v3";
  Chunk_store.abort_batch cs;
  Alcotest.(check string) "abort keeps v2" "v2" (Chunk_store.read cs a)

let test_cache_dealloc_coherence () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "doomed";
  Chunk_store.commit cs;
  Alcotest.(check string) "cached" "doomed" (Chunk_store.read cs a);
  Chunk_store.deallocate cs a;
  Chunk_store.commit cs;
  Alcotest.(check int) "dealloc drops the cached copy" 0 (Chunk_store.cache_resident cs);
  Alcotest.(check bool) "read after dealloc fails" true
    (match Chunk_store.read cs a with exception Types.Not_written _ -> true | _ -> false)

let test_cache_eviction_under_budget () =
  let env = fresh_env () in
  (* room for ~2 entries of 100 bytes (+64 overhead each) *)
  let config = { (cfg ()) with Config.chunk_cache_bytes = 400 } in
  let cs = create ~config env in
  let cids = List.init 6 (fun _ -> Chunk_store.allocate cs) in
  List.iteri (fun i cid -> Chunk_store.write cs cid (String.make 100 (Char.chr (Char.code 'a' + i)))) cids;
  Chunk_store.commit cs;
  List.iteri
    (fun i cid ->
      Alcotest.(check string) "intact" (String.make 100 (Char.chr (Char.code 'a' + i))) (Chunk_store.read cs cid))
    cids;
  let _, _, evictions = cache_counters cs in
  Alcotest.(check bool) "evictions happened" true (evictions > 0);
  Alcotest.(check bool) "within budget" true (Chunk_store.cache_bytes cs <= Chunk_store.cache_budget cs)

(* A chunk charged more than the whole budget is read correctly but not
   cached, and its older cached version goes: the bound on cached
   plaintext holds after every put. *)
let test_cache_oversize_skipped () =
  let env = fresh_env () in
  let config = { (cfg ()) with Config.chunk_cache_bytes = 400 } in
  let cs = create ~config env in
  let a = Chunk_store.allocate cs in
  let b = Chunk_store.allocate cs in
  Chunk_store.write cs a "small";
  Chunk_store.write cs b "old";
  Chunk_store.commit cs;
  Alcotest.(check int) "both cached" 2 (Chunk_store.cache_resident cs);
  let big = String.make 600 'b' in
  Chunk_store.write cs b big;
  Chunk_store.commit cs;
  Alcotest.(check string) "oversize read" big (Chunk_store.read cs b);
  Alcotest.(check string) "oversize reread" big (Chunk_store.read cs b);
  Alcotest.(check string) "small read" "small" (Chunk_store.read cs a);
  Alcotest.(check (triple int int int)) "counters" (1, 2, 0) (cache_counters cs);
  Alcotest.(check int) "only the small chunk resident" 1 (Chunk_store.cache_resident cs);
  Alcotest.(check bool) "within budget" true (Chunk_store.cache_bytes cs <= Chunk_store.cache_budget cs)

let test_cache_zero_budget_disables () =
  let env = fresh_env () in
  let config = { (cfg ()) with Config.chunk_cache_bytes = 0 } in
  let cs = create ~config env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "plain path";
  Chunk_store.commit cs;
  Alcotest.(check string) "read 1" "plain path" (Chunk_store.read cs a);
  Alcotest.(check string) "read 2" "plain path" (Chunk_store.read cs a);
  let hits, misses, _ = cache_counters cs in
  Alcotest.(check int) "no hits" 0 hits;
  Alcotest.(check int) "all misses" 2 misses;
  Alcotest.(check int) "nothing resident" 0 (Chunk_store.cache_resident cs)

let test_cache_survives_cleaning () =
  let env = fresh_env () in
  let cs = create env in
  let cids = List.init 8 (fun _ -> Chunk_store.allocate cs) in
  List.iteri (fun i cid -> Chunk_store.write cs cid (Printf.sprintf "record-%03d" i)) cids;
  Chunk_store.commit cs;
  (* churn to give the cleaner something to relocate *)
  for round = 1 to 12 do
    List.iteri
      (fun i cid -> if i mod 2 = 0 then Chunk_store.write cs cid (Printf.sprintf "record-%03d-r%d" i round))
      cids;
    Chunk_store.commit cs
  done;
  List.iter (fun cid -> ignore (Chunk_store.read cs cid)) cids;
  let _, misses_before, _ = cache_counters cs in
  Chunk_store.clean cs;
  Alcotest.(check bool) "cleaner ran" true ((Chunk_store.stats cs).Chunk_store.clean_passes > 0);
  (* relocation preserves versions, so cached entries stay valid: re-reading
     everything adds no misses *)
  List.iteri
    (fun i cid ->
      let expect = if i mod 2 = 0 then Printf.sprintf "record-%03d-r12" i else Printf.sprintf "record-%03d" i in
      Alcotest.(check string) "post-clean read" expect (Chunk_store.read cs cid))
    cids;
  let _, misses_after, _ = cache_counters cs in
  Alcotest.(check int) "no new misses across clean" misses_before misses_after

let test_cache_cold_after_reopen () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "durable data";
  Chunk_store.commit ~durable:true cs;
  ignore (Chunk_store.read cs a);
  Alcotest.(check bool) "warm before crash" true (Chunk_store.cache_resident cs > 0);
  (* recovery builds a fresh store: nothing cached until re-read *)
  let cs2 = reopen env in
  Alcotest.(check int) "cold after recovery" 0 (Chunk_store.cache_resident cs2);
  let hits0, misses0, _ = cache_counters cs2 in
  Alcotest.(check string) "first read refetches" "durable data" (Chunk_store.read cs2 a);
  Alcotest.(check string) "second read hits" "durable data" (Chunk_store.read cs2 a);
  let hits, misses, _ = cache_counters cs2 in
  Alcotest.(check int) "one miss" (misses0 + 1) misses;
  Alcotest.(check int) "one hit" (hits0 + 1) hits

let test_cache_set_budget_runtime () =
  let env = fresh_env () in
  let cs = create env in
  let cids = List.init 4 (fun _ -> Chunk_store.allocate cs) in
  List.iter (fun cid -> Chunk_store.write cs cid (String.make 200 'z')) cids;
  Chunk_store.commit cs;
  Alcotest.(check bool) "warm" true (Chunk_store.cache_resident cs >= 4);
  Chunk_store.set_cache_budget cs 300;
  Alcotest.(check bool) "shrunk immediately" true (Chunk_store.cache_bytes cs <= 300);
  Alcotest.(check bool) "entries evicted" true (Chunk_store.cache_resident cs <= 1)

(* A checkpoint that promotes nondurable commits to durable is itself a
   durability event: it must bump the one-way counter, or flipping the
   fresh anchor slot would silently roll the promotion back (the crashfuzz
   `silent=17` bug). *)
let test_checkpoint_promotion_bumps_counter () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "durable base";
  Chunk_store.commit ~durable:true cs;
  let c0 = One_way_counter.read env.ctr in
  Chunk_store.write cs a "promoted by checkpoint";
  Chunk_store.commit ~durable:false cs;
  Alcotest.(check bool) "no bump on nondurable commit" true (Int64.equal (One_way_counter.read env.ctr) c0);
  Chunk_store.checkpoint cs;
  Alcotest.(check bool) "promotion bumps counter" true
    (Int64.equal (One_way_counter.read env.ctr) (Int64.add c0 1L));
  (* a second checkpoint has nothing to promote: no further bump *)
  Chunk_store.checkpoint cs;
  Alcotest.(check bool) "idempotent" true (Int64.equal (One_way_counter.read env.ctr) (Int64.add c0 1L));
  (* and the promoted state is durable: recovery keeps it *)
  let cs2 = reopen env in
  Alcotest.(check string) "promoted state survives" "promoted by checkpoint" (Chunk_store.read cs2 a)

(* A durable barrier runs only when it has something to promote: an idle
   barrier after a durable commit, or one after a checkpoint already
   promoted the nondurable commit, issues no sync and no counter bump. *)
let test_idle_barrier_touches_nothing () =
  let env = fresh_env () in
  let cs = create env in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "seed";
  Chunk_store.commit ~durable:true cs;
  let barrier what ~runs =
    let syncs () = (Untrusted_store.stats env.store).Untrusted_store.syncs in
    let s0 = syncs () and c0 = One_way_counter.read env.ctr in
    let d0 = (Chunk_store.stats cs).Chunk_store.durable_commits in
    Chunk_store.durable_barrier cs;
    let d1 = (Chunk_store.stats cs).Chunk_store.durable_commits in
    Alcotest.(check bool) (what ^ ": barrier ran") runs (d1 > d0);
    Alcotest.(check bool) (what ^ ": store synced") runs (syncs () > s0);
    Alcotest.(check bool) (what ^ ": counter advanced") runs (Int64.compare (One_way_counter.read env.ctr) c0 > 0)
  in
  Chunk_store.write cs a "nondurable";
  Chunk_store.commit ~durable:false cs;
  barrier "after a nondurable commit" ~runs:true;
  Chunk_store.write cs a "durable";
  Chunk_store.commit ~durable:true cs;
  barrier "idle after a durable commit" ~runs:false;
  Chunk_store.write cs a "promoted";
  Chunk_store.commit ~durable:false cs;
  Chunk_store.checkpoint cs;
  barrier "after a promoting checkpoint" ~runs:false;
  (* the skipped barrier lost nothing: the checkpoint made it durable *)
  Untrusted_store.Mem.crash_hard env.mem;
  Alcotest.(check string) "promoted commit survives" "promoted" (Chunk_store.read (reopen env) a)

(* Reserved chunk 2 held a shard router's decision table: a store written
   as one shard of a wider database is refused, not half-served. *)
let test_sharded_image_refused () =
  let env = fresh_env () in
  let cs = create env in
  Chunk_store.write cs 2 "decision table";
  Chunk_store.commit ~durable:true cs;
  Chunk_store.close cs;
  Alcotest.(check bool) "open refused" true
    (match reopen env with _ -> false | exception Chunk_store.Recovery_failed _ -> true)

(* [Shard_store] is a set of aliases over one chunk store: the image it
   writes is a plain chunk store's, and it takes exactly one store. *)
let test_shard_aliases () =
  let env = fresh_env () in
  let ss = Shard_store.create ~config:(cfg ()) ~secret:env.secret ~counters:[| env.ctr |] [| env.store |] in
  let a = Chunk_store.allocate ss in
  Chunk_store.write ss a "through the aliases";
  Chunk_store.commit ss;
  Shard_store.close ss;
  Alcotest.(check string) "plain chunk store image" "through the aliases" (Chunk_store.read (reopen env) a);
  let _, other = Untrusted_store.open_mem () and _, ctr2 = One_way_counter.open_mem () in
  Alcotest.(check bool) "two stores refused" true
    (match
       Shard_store.create ~config:(cfg ()) ~secret:env.secret ~counters:[| env.ctr; ctr2 |] [| env.store; other |]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- log barriers: the free list equals a full rescan --- *)

(* A barrier visits only the segments noted since the last one; these tests
   hold it to the full rescan it replaces, read through [Log.t]'s fields:
   every segment with no usage that is not the tail, pinned, residual or
   held, ascending, less the trailing ones shrink hands back. *)
let log_cfg = { (cfg ()) with Config.clean_batch = 1 }

let rescan ?(checkpoint = false) (log : Log.t) : int * int list =
  let held s = match log.Log.held with Some h -> Hashtbl.mem h s | None -> false in
  let freeable s =
    s <> log.Log.tail_seg
    && (not (Hashtbl.mem log.Log.usage s))
    && (not (Log.is_pinned log s))
    && (checkpoint || not (Hashtbl.mem log.Log.residual s))
    && not (held s)
  in
  let reserve = (2 * log.Log.cfg.Config.clean_batch) + 6 in
  let rec shrink n desc =
    match desc with
    | l :: rest when l = n - 1 && n > log.Log.cfg.Config.initial_segments && List.length desc > reserve ->
        shrink (n - 1) rest
    | _ -> (n, List.rev desc)
  in
  shrink log.Log.nsegments (List.rev (List.filter freeable (List.init log.Log.nsegments Fun.id)))

(* Run a barrier ([Log.barrier], or [Log.end_checkpoint] with
   [~checkpoint:true]) and check its free list against the rescan. *)
let checked_barrier ?(checkpoint = false) what (log : Log.t) =
  let nsegments, free = rescan ~checkpoint log in
  if checkpoint then Log.end_checkpoint log else Log.barrier log;
  Alcotest.(check (list int)) (what ^ ": free list = rescan") free log.Log.free;
  Alcotest.(check int) (what ^ ": nfree") (List.length free) log.Log.nfree;
  Alcotest.(check int) (what ^ ": nsegments") nsegments log.Log.nsegments

let log_append ?(live = true) log len =
  let rec go () =
    match Log.append ~live log (if live then Types.Data_chunk else Types.Commit) (String.make len 'r') with
    | seg, off -> { Types.seg; off; len; hash = ""; version = 0 }
    | exception Log.Need_segment ->
        Log.grow log ~segments:2;
        go ()
  in
  go ()

(* A random store life at the log level: appends and obsoletes, commit
   records, durable barriers, checkpoints, a snapshot pinned and released,
   grows that later shrink, clean passes that relocate a segment's live
   records, and staged barriers whose hold spans more writes. *)
let log_barrier_workload seed =
  let rng = Random.State.make [| seed |] in
  let _, store = Untrusted_store.open_mem () in
  let log = Log.create store log_cfg in
  let live = ref [] and snap = ref None in
  let write () = live := log_append log (50 + Random.State.int rng 1500) :: !live in
  let obsolete () =
    match !live with
    | [] -> ()
    | l ->
        let victim = List.nth l (Random.State.int rng (List.length l)) in
        Log.obsolete_entry log victim;
        live := List.filter (fun e -> e != victim) l
  in
  let churn () =
    for _ = 1 to Random.State.int rng 6 do
      if Random.State.bool rng then write () else obsolete ()
    done
  in
  for step = 1 to 300 do
    let what = Printf.sprintf "seed %d step %d" seed step in
    match Random.State.int rng 12 with
    | 0 | 1 | 2 -> churn ()
    | 3 -> ignore (log_append ~live:false log (20 + Random.State.int rng 200))
    | 4 | 5 -> checked_barrier ("durable " ^ what) log
    | 6 -> checked_barrier ~checkpoint:true ("checkpoint " ^ what) log
    | 7 -> (
        match !snap with
        | None ->
            checked_barrier ~checkpoint:true ("snapshot " ^ what) log;
            let segs = List.sort_uniq Int.compare (List.map (fun e -> e.Types.seg) !live) in
            List.iter (Log.pin log) segs;
            snap := Some segs
        | Some segs ->
            List.iter (Log.unpin log) segs;
            snap := None;
            checked_barrier ~checkpoint:true ("release " ^ what) log)
    | 8 -> Log.grow log ~segments:(1 + Random.State.int rng 12)
    | 9 -> (
        checked_barrier ~checkpoint:true ("pre-clean " ^ what) log;
        match Log.clean_candidates log with
        | [] -> ()
        | seg :: _ ->
            let moving, staying = List.partition (fun e -> e.Types.seg = seg) !live in
            live := staying;
            List.iter
              (fun e ->
                Log.obsolete_entry log e;
                live := log_append log e.Types.len :: !live)
              moving;
            checked_barrier ~checkpoint:true ("clean " ^ what) log)
    | _ ->
        Log.hold log;
        churn ();
        checked_barrier ("staged " ^ what) log
  done

let test_log_barrier_rescan () = List.iter log_barrier_workload [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* Fill segments with 500-byte records until the tail is past segment 2;
   returns the live entries. *)
let log_fill log =
  let rec go acc = if fst (Log.tail_pos log) > 2 then acc else go (log_append log 500 :: acc) in
  go []

let empty_segment log entries seg = List.iter (fun e -> if e.Types.seg = seg then Log.obsolete_entry log e) entries

let test_log_emptied_under_snapshot () =
  let _, store = Untrusted_store.open_mem () in
  let log = Log.create store log_cfg in
  let entries = log_fill log in
  checked_barrier ~checkpoint:true "checkpoint" log;
  Log.pin log 1;
  empty_segment log entries 1;
  checked_barrier "durable while pinned" log;
  checked_barrier ~checkpoint:true "checkpoint while pinned" log;
  Alcotest.(check bool) "pinned: kept" false (List.mem 1 log.Log.free);
  Log.unpin log 1;
  checked_barrier ~checkpoint:true "release" log;
  Alcotest.(check bool) "released: freed" true (List.mem 1 log.Log.free)

let test_log_emptied_while_residual () =
  let _, store = Untrusted_store.open_mem () in
  let log = Log.create store log_cfg in
  let entries = log_fill log in
  empty_segment log entries 1;
  checked_barrier "durable" log;
  Alcotest.(check bool) "residual: kept" false (List.mem 1 log.Log.free);
  checked_barrier ~checkpoint:true "checkpoint" log;
  Alcotest.(check bool) "checkpoint: freed" true (List.mem 1 log.Log.free)

let qcheck_commit_batches =
  (* arbitrary batches of writes applied atomically match a model *)
  QCheck.Test.make ~name:"random batched workload matches model" ~count:15
    QCheck.(list (small_list (pair (int_range 0 20) (string_of_size QCheck.Gen.(0 -- 200)))))
    (fun batches ->
      let env = fresh_env () in
      let cs = create env in
      let key_to_cid = Hashtbl.create 16 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun batch ->
          List.iter
            (fun (k, v) ->
              let cid =
                match Hashtbl.find_opt key_to_cid k with
                | Some cid -> cid
                | None ->
                    let cid = Chunk_store.allocate cs in
                    Hashtbl.replace key_to_cid k cid;
                    cid
              in
              Chunk_store.write cs cid v;
              Hashtbl.replace model k v)
            batch;
          Chunk_store.commit cs)
        batches;
      Hashtbl.fold (fun k v ok -> ok && Chunk_store.read cs (Hashtbl.find key_to_cid k) = v) model true)

(* --- store image pin --- *)

(* One deterministic workload: enough writes per batch to split into
   sub-commits (the commit-record budget is segment_size/4), deallocations
   mid-batch, nondurable commits and a reopen mid-trace. The image digest
   is pinned: sealing order, IV draws and record layout must not drift. *)
let trace_image () =
  let config = cfg () in
  let env = { (fresh_env ()) with secret = Secret_store.of_seed "par-test-device" } in
  let lcg = ref 42 in
  let next_int bound =
    lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
    !lcg mod bound
  in
  let cs = ref (create ~config env) in
  let live = ref [] and expect = Hashtbl.create 128 in
  for round = 0 to 4 do
    let ids = List.init 25 (fun _ -> Chunk_store.allocate !cs) in
    List.iteri
      (fun i cid ->
        let data = Printf.sprintf "r%d-i%d-%s" round i (String.make (16 + next_int 200) 'x') in
        Chunk_store.write !cs cid data;
        Hashtbl.replace expect cid data)
      ids;
    live := !live @ ids;
    if round mod 3 = 2 then begin
      match !live with
      | a :: b :: rest ->
          Chunk_store.deallocate !cs a;
          Chunk_store.deallocate !cs b;
          live := rest
      | _ -> ()
    end;
    Chunk_store.commit ~durable:(round mod 2 = 0) !cs;
    if round = 3 then begin
      Chunk_store.close !cs;
      cs := reopen ~config env
    end
  done;
  Chunk_store.commit ~durable:true !cs;
  List.iter
    (fun cid -> Alcotest.(check string) "read back" (Hashtbl.find expect cid) (Chunk_store.read !cs cid))
    !live;
  Chunk_store.close !cs;
  Untrusted_store.Mem.contents env.mem

(* Unloading clean map leaves changes what a store holds in memory, not
   what it writes: one trace of writes, reads, idle cleans and a reopen
   under fanout 4, run with a zero leaf bound and with none, leaves the
   same image and reads the same chunks; the bounded store fetches map
   nodes again, so it makes more read calls. *)
let map_trim_trace ~map_leaves =
  let config =
    { (cfg ~max_utilization:0.8 ()) with Config.map_fanout = 4; map_depth = 6; map_leaves }
  in
  let env = fresh_env () in
  let lcg = ref 7 in
  let next bound =
    lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
    !lcg mod bound
  in
  let cs = ref (create ~config env) in
  let ids = Array.init 120 (fun _ -> Chunk_store.allocate !cs) in
  let expect = Hashtbl.create 128 in
  Array.iter
    (fun cid ->
      Chunk_store.write !cs cid "initial";
      Hashtbl.replace expect cid "initial")
    ids;
  Chunk_store.commit ~durable:true !cs;
  let check_some n =
    for _ = 1 to n do
      let cid = ids.(next 120) in
      Alcotest.(check string) "read back" (Hashtbl.find expect cid) (Chunk_store.read !cs cid)
    done
  in
  for r = 0 to 59 do
    for _ = 1 to 6 do
      let cid = ids.(next 120) in
      let d = Printf.sprintf "r%d-c%d-%s" r cid (String.make (16 + next 100) 'm') in
      Chunk_store.write !cs cid d;
      Hashtbl.replace expect cid d
    done;
    Chunk_store.commit ~durable:(r mod 4 = 0) !cs;
    cadence ~every:8 !cs (r + 2);
    check_some 4;
    if r mod 20 = 19 then Chunk_store.clean !cs;
    if r = 40 then begin
      Chunk_store.close !cs;
      cs := reopen ~config env
    end
  done;
  Chunk_store.commit ~durable:true !cs;
  Hashtbl.iter (fun cid d -> Alcotest.(check string) "read back at the end" d (Chunk_store.read !cs cid)) expect;
  let reads = (Untrusted_store.stats env.store).Untrusted_store.reads in
  Chunk_store.close !cs;
  (Untrusted_store.Mem.contents env.mem, reads)

let test_map_trim_same_image () =
  let bounded, bounded_reads = map_trim_trace ~map_leaves:0 in
  let unbounded, unbounded_reads = map_trim_trace ~map_leaves:max_int in
  Alcotest.(check bool) "same image" true (String.equal bounded unbounded);
  Alcotest.(check bool)
    (Printf.sprintf "unloaded leaves were fetched again (%d > %d read calls)" bounded_reads unbounded_reads)
    true (bounded_reads > unbounded_reads)

let test_deterministic_images () =
  let img = trace_image () in
  Alcotest.(check bool) "same image on a second run" true (String.equal img (trace_image ()));
  Alcotest.(check string) "pinned image digest"
    "a95c03df623c512cddc0685914a30f1cd6492a1d23eaafc3d8878de92ea26751"
    (Tdb_crypto.Hex.of_string (Tdb_crypto.Sha256.digest img))

let () =
  Alcotest.run "tdb_chunk"
    [
      ( "store",
        [
          Alcotest.test_case "deterministic images" `Quick test_deterministic_images;
          Alcotest.test_case "map trim writes the same image" `Quick test_map_trim_same_image;
          Alcotest.test_case "shard aliases take one store" `Quick test_shard_aliases;
        ] );
      ( "api",
        [
          Alcotest.test_case "write/read" `Quick test_write_read;
          Alcotest.test_case "commit is one coalesced flush" `Quick test_commit_single_flush;
          Alcotest.test_case "scan_chain terminates on a marker cycle" `Quick test_scan_chain_cycle;
          Alcotest.test_case "scans stop at a bad record header" `Quick test_scans_stop_at_bad_header;
          Alcotest.test_case "pending batch visible" `Quick test_read_uncommitted_batch;
          Alcotest.test_case "unallocated signals" `Quick test_unallocated_signals;
          Alcotest.test_case "overwrite/resize" `Quick test_overwrite_and_resize;
          Alcotest.test_case "deallocate" `Quick test_deallocate;
          Alcotest.test_case "dealloc unwritten" `Quick test_dealloc_never_written;
          Alcotest.test_case "abort batch" `Quick test_abort_batch;
          Alcotest.test_case "chunk too large" `Quick test_chunk_too_large;
          Alcotest.test_case "variable sizes" `Quick test_variable_sizes_roundtrip;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "reopen" `Quick test_reopen;
          Alcotest.test_case "crash before commit" `Quick test_crash_before_commit;
          Alcotest.test_case "crash after durable commit" `Quick test_crash_after_durable_commit;
          Alcotest.test_case "nondurable lost on crash" `Quick test_nondurable_commit_lost_on_crash;
          Alcotest.test_case "nondurable sealed by durable" `Quick test_nondurable_then_durable_survives;
          Alcotest.test_case "randomized crash storm" `Slow test_crash_recovery_randomized;
          Alcotest.test_case "missing anchor" `Quick test_open_missing_anchor_fails;
          Alcotest.test_case "layout mismatch" `Quick test_layout_mismatch_rejected;
          Alcotest.test_case "sharded image refused" `Quick test_sharded_image_refused;
          Alcotest.test_case "IVs unique across reopen" `Quick test_iv_unique_across_reopen;
          Alcotest.test_case "IVs unique across crash" `Quick test_iv_unique_across_crash;
        ] );
      ( "verify",
        [
          Alcotest.test_case "writes nothing" `Quick test_verify_writes_nothing;
          Alcotest.test_case "reports replay" `Quick test_verify_reports_replay;
          Alcotest.test_case "agrees with open on bit flips" `Quick test_verify_agrees_on_bitflips;
          Alcotest.test_case "passes honest crash images" `Quick test_verify_passes_honest_crashes;
          Alcotest.test_case "agrees with open on truncation" `Quick test_verify_agrees_on_truncation;
        ] );
      ( "tamper",
        [
          Alcotest.test_case "data corruption detected" `Quick test_tamper_data_detected;
          Alcotest.test_case "single bit flip detected" `Quick test_tamper_single_bit_detected;
          Alcotest.test_case "exhaustive bit-flip sweep" `Slow test_exhaustive_bitflip_sweep;
          Alcotest.test_case "anchor corruption detected" `Quick test_tamper_anchor_detected;
          Alcotest.test_case "replay attack detected" `Quick test_replay_attack_detected;
          Alcotest.test_case "counter rollback detected" `Quick test_counter_rollback_detected;
          Alcotest.test_case "counter one-behind repaired" `Quick test_counter_one_behind_repaired;
          Alcotest.test_case "no plaintext on media" `Quick test_no_plaintext_on_media;
          Alcotest.test_case "security off is plaintext" `Quick test_plaintext_visible_without_security;
        ] );
      ( "cleaning",
        [
          Alcotest.test_case "reclaims space" `Quick test_cleaning_reclaims_space;
          Alcotest.test_case "survives reopen" `Quick test_cleaning_survives_reopen;
          Alcotest.test_case "grow vs clean policy" `Quick test_low_utilization_grows_instead;
          Alcotest.test_case "explicit idle clean" `Quick test_explicit_idle_clean;
          Alcotest.test_case "lowest utilization first" `Quick test_clean_lowest_utilization_first;
          Alcotest.test_case "every cipher, wide ids" `Quick test_clean_every_cipher;
          Alcotest.test_case "forged ids are garbage" `Quick test_clean_skips_forged_ids;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "isolation" `Quick test_snapshot_isolation;
          Alcotest.test_case "diff" `Quick test_snapshot_diff;
          Alcotest.test_case "survives reopen" `Quick test_snapshot_survives_reopen;
          Alcotest.test_case "protected from cleaner" `Quick test_snapshot_protects_from_cleaner;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "free list = full rescan" `Quick test_log_barrier_rescan;
          Alcotest.test_case "emptied under a snapshot frees only after release" `Quick
            test_log_emptied_under_snapshot;
          Alcotest.test_case "emptied while residual frees at the checkpoint" `Quick
            test_log_emptied_while_residual;
        ] );
      ("checkpoint", [ Alcotest.test_case "periodic" `Quick test_periodic_checkpoint;
                       Alcotest.test_case "promotion bumps counter" `Quick test_checkpoint_promotion_bumps_counter;
                       Alcotest.test_case "idle barrier touches nothing" `Quick test_idle_barrier_touches_nothing ]);
      ( "cache",
        [
          Alcotest.test_case "security work counts" `Quick test_security_counts;
          Alcotest.test_case "hits after commit" `Quick test_cache_hits_after_commit;
          Alcotest.test_case "read-after-write coherence" `Quick test_cache_read_after_write_coherence;
          Alcotest.test_case "dealloc coherence" `Quick test_cache_dealloc_coherence;
          Alcotest.test_case "eviction under budget" `Quick test_cache_eviction_under_budget;
          Alcotest.test_case "oversize chunk skipped" `Quick test_cache_oversize_skipped;
          Alcotest.test_case "zero budget disables" `Quick test_cache_zero_budget_disables;
          Alcotest.test_case "survives cleaning" `Quick test_cache_survives_cleaning;
          Alcotest.test_case "cold after reopen" `Quick test_cache_cold_after_reopen;
          Alcotest.test_case "runtime budget shrink" `Quick test_cache_set_budget_runtime;
        ] );
      ("qcheck", [ QCheck_alcotest.to_alcotest qcheck_commit_batches ]);
    ]
