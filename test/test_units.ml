(* Direct unit tests for internal modules that the integration suites only
   exercise indirectly: location map, log, anchor, security context, cache,
   lock manager, index structures, disk model, workload encodings. *)

open Tdb_platform
open Tdb_chunk

let test_cfg =
  { Config.default with Config.segment_size = 4096; initial_segments = 8; anchor_slot_size = 2048;
    checkpoint_every = 1000; checkpoint_residual_bytes = 4 * 4096; clean_batch = 2 }

let sec_on () =
  let secret = Secret_store.of_seed "units" in
  let sec = Security.create test_cfg secret in
  Security.start_session sec secret ~counter:0L ~epoch:1;
  sec
let sec_off () = Security.create { test_cfg with Config.security = false } (Secret_store.of_seed "units")

(* ------------------------------------------------------------------ *)
(* Security context                                                    *)
(* ------------------------------------------------------------------ *)

let test_security_seal_roundtrip () =
  let sec = sec_on () in
  let plain = "the plaintext" in
  let sealed = Security.seal sec plain in
  Alcotest.(check bool) "actually encrypted" true (sealed <> plain);
  Alcotest.(check string) "roundtrip" plain (Security.unseal sec sealed);
  (* two seals of the same plaintext differ (fresh IVs) *)
  Alcotest.(check bool) "iv freshness" true (Security.seal sec plain <> sealed)

let test_security_label_and_mac () =
  let sec = sec_on () in
  let l = Security.label sec "data" in
  Alcotest.(check int) "sha1 label" 20 (String.length l);
  Security.check_label sec ~expected:l "data" ~what:(fun () -> "x");
  Alcotest.(check bool) "bad label raises" true
    (match Security.check_label sec ~expected:l "datb" ~what:(fun () -> "x") with
    | exception Types.Tamper_detected _ -> true
    | () -> false);
  Alcotest.(check bool) "mac verifies" true (Security.check_mac sec ~expected:(Security.mac sec "m") "m" ~what:"x");
  Alcotest.(check bool) "mac rejects" false (Security.check_mac sec ~expected:(Security.mac sec "m") "n" ~what:"x")

let test_security_disabled_is_transparent () =
  let sec = sec_off () in
  Alcotest.(check string) "no encryption" "abc" (Security.seal sec "abc");
  Alcotest.(check string) "no label" "" (Security.label sec "abc");
  Security.check_label sec ~expected:"" "anything" ~what:(fun () -> "x");
  Alcotest.(check int) "no seal overhead" 0 (Security.seal_overhead sec 100)

(* ------------------------------------------------------------------ *)
(* Location map                                                        *)
(* ------------------------------------------------------------------ *)

(* a fake store for map nodes: payloads held in a table, entries index it *)
let fake_fetch (tbl : (int, string) Hashtbl.t) : Location_map.fetch =
 fun ~what:_ (e : Types.entry) -> Hashtbl.find tbl e.Types.off

let fake_writer (tbl : (int, string) Hashtbl.t) =
  let next = ref 0 in
  fun payload ->
    incr next;
    Hashtbl.replace tbl !next payload;
    { Types.seg = 0; off = !next; len = String.length payload; hash = ""; version = 0 }

let entry_for i = { Types.seg = 1; off = 1000 + i; len = 10; hash = ""; version = i }

(* the fake-store offsets of every on-disk node copy the map reaches *)
let node_offs m fetch =
  let acc = ref [] in
  Location_map.iter m fetch ~data:(fun _ _ -> ()) ~node:(fun e -> acc := e.Types.off :: !acc);
  List.sort compare !acc

let test_map_set_find_remove () =
  let tbl = Hashtbl.create 16 in
  let fetch = fake_fetch tbl in
  let m = Location_map.create ~fanout:4 ~depth:3 (* 64 ids *) in
  Alcotest.(check bool) "empty" true (Location_map.find m fetch 5 = None);
  for i = 0 to 63 do
    ignore (Location_map.set m fetch i (entry_for i))
  done;
  for i = 0 to 63 do
    match Location_map.find m fetch i with
    | Some e -> Alcotest.(check int) "found" i e.Types.version
    | None -> Alcotest.failf "missing %d" i
  done;
  let old = Location_map.remove m fetch 7 in
  Alcotest.(check bool) "removed returns old" true (old <> None);
  Alcotest.(check bool) "gone" true (Location_map.find m fetch 7 = None);
  Alcotest.(check bool) "id out of range" true
    (match Location_map.find m fetch 64 with exception Invalid_argument _ -> true | _ -> false)

let test_map_checkpoint_and_reload () =
  let tbl = Hashtbl.create 16 in
  let fetch = fake_fetch tbl in
  let write_node = fake_writer tbl in
  let m = Location_map.create ~fanout:4 ~depth:3 in
  for i = 0 to 20 do
    ignore (Location_map.set m fetch i (entry_for i))
  done;
  let root = Location_map.checkpoint m ~write_node ~retire:ignore in
  Alcotest.(check bool) "root written" true (root <> None);
  Alcotest.(check bool) "clean root exposed" true (Location_map.root_entry m <> None);
  (* reload the tree fresh from the fake store *)
  let m2 = Location_map.create ~fanout:4 ~depth:3 in
  let root_e = Option.get root in
  let root_node = Location_map.node_of_payload ~fanout:4 (fetch ~what:(fun () -> "r") root_e) in
  root_node.Location_map.disk <- Some root_e;
  m2.Location_map.root <- root_node;
  for i = 0 to 20 do
    match Location_map.find m2 fetch i with
    | Some e -> Alcotest.(check int) "reloaded" i e.Types.version
    | None -> Alcotest.failf "missing %d after reload" i
  done;
  (* incremental checkpoint: only dirty paths are rewritten *)
  let writes = ref 0 in
  let counting_writer payload =
    incr writes;
    write_node payload
  in
  (* a set leaves the anchored copies in place until the next checkpoint *)
  let before = node_offs m fetch in
  ignore (Location_map.set m fetch 3 (entry_for 99));
  Alcotest.(check bool) "root dirty" true m.Location_map.root.Location_map.dirty;
  Alcotest.(check bool) "disk copies kept while dirty" true (node_offs m fetch = before);
  (* the checkpoint hands each superseded copy to [retire] exactly once *)
  let retired = ref [] in
  ignore
    (Location_map.checkpoint m ~write_node:counting_writer ~retire:(fun e -> retired := e.Types.off :: !retired));
  Alcotest.(check int) "only the dirty path rewritten" 3 !writes;
  let after = node_offs m fetch in
  Alcotest.(check (list int)) "superseded copies retired once"
    (List.filter (fun o -> not (List.mem o after)) before)
    (List.sort compare !retired)

let test_map_count_dirty () =
  let tbl = Hashtbl.create 16 in
  let fetch = fake_fetch tbl in
  let write_node = fake_writer tbl in
  let m = Location_map.create ~fanout:4 ~depth:3 in
  Alcotest.(check int) "fresh root is dirty" 1 (Location_map.count_dirty m);
  ignore (Location_map.set m fetch 0 (entry_for 0));
  Alcotest.(check bool) "dirty path counted" true (Location_map.count_dirty m >= 2);
  ignore (Location_map.checkpoint m ~write_node ~retire:ignore);
  Alcotest.(check int) "clean after checkpoint" 0 (Location_map.count_dirty m);
  (* a set dirties exactly its root-to-leaf path, and nothing else *)
  ignore (Location_map.set m fetch 63 (entry_for 63));
  Alcotest.(check int) "one path dirty" 3 (Location_map.count_dirty m);
  ignore (Location_map.checkpoint m ~write_node ~retire:ignore);
  Alcotest.(check int) "clean after second checkpoint" 0 (Location_map.count_dirty m);
  (* the cleaner's relocation: dirtying a clean interior node makes the next
     checkpoint rewrite it and its ancestors, and retire their old copies *)
  let written = ref 0 and retired = ref 0 in
  Location_map.dirty_path m fetch ~level:1 48;
  Alcotest.(check int) "interior node and root dirty" 2 (Location_map.count_dirty m);
  ignore
    (Location_map.checkpoint m
       ~write_node:(fun p ->
         incr written;
         write_node p)
       ~retire:(fun _ -> incr retired));
  Alcotest.(check (pair int int)) "node and root rewritten, old copies retired" (2, 2) (!written, !retired);
  Alcotest.(check int) "clean after relocation" 0 (Location_map.count_dirty m)

let test_map_diff_trees () =
  let tbl = Hashtbl.create 16 in
  let fetch = fake_fetch tbl in
  let write_node = fake_writer tbl in
  let m = Location_map.create ~fanout:4 ~depth:3 in
  for i = 0 to 10 do
    ignore (Location_map.set m fetch i (entry_for i))
  done;
  let r1 = Location_map.checkpoint m ~write_node ~retire:ignore in
  ignore (Location_map.set m fetch 3 (entry_for 333));
  ignore (Location_map.remove m fetch 9);
  ignore (Location_map.set m fetch 40 (entry_for 40));
  let r2 = Location_map.checkpoint m ~write_node ~retire:ignore in
  let changed = ref [] and removed = ref [] in
  Location_map.diff_trees ~fanout:4 fetch ~old_root:r1 ~new_root:r2
    ~changed:(fun cid e -> changed := (cid, e.Types.version) :: !changed)
    ~removed:(fun cid -> removed := cid :: !removed);
  Alcotest.(check (list (pair int int))) "changed" [ (3, 333); (40, 40) ] (List.sort compare !changed);
  Alcotest.(check (list int)) "removed" [ 9 ] !removed

(* ------------------------------------------------------------------ *)
(* Log                                                                 *)
(* ------------------------------------------------------------------ *)

let test_log_append_and_scan () =
  let _, store = Untrusted_store.open_mem () in
  let log = Log.create store test_cfg in
  let recs = List.init 20 (fun i -> String.make (50 + (i * 13 mod 200)) (Char.chr (65 + i))) in
  let positions = List.map (fun r -> Log.append log Types.Data_chunk r) recs in
  (* read back by position *)
  List.iter2
    (fun r (seg, off) ->
      Alcotest.(check string) "payload" r
        (Log.read_payload log { Types.seg; off; len = String.length r; hash = ""; version = 0 }))
    recs positions;
  (* segment scan parses the same records *)
  let scanned = Log.scan_segment log 0 in
  Alcotest.(check bool) "scan found records" true (List.length scanned > 0);
  List.iteri
    (fun i (kind, _, payload) ->
      Alcotest.(check bool) "kind" true (kind = Types.Data_chunk);
      Alcotest.(check string) "scan payload" (List.nth recs i) payload)
    scanned

let test_log_segment_chaining () =
  let _, store = Untrusted_store.open_mem () in
  let log = Log.create store test_cfg in
  (* write more than one segment's worth *)
  let big = String.make 1000 'x' in
  let n = 12 (* 12 KB > 1 segment *) in
  for _ = 1 to n do
    ignore (Log.append log Types.Data_chunk big)
  done;
  (* chain scan from the start sees all data records *)
  let count = ref 0 in
  Log.scan_chain log ~seg:0 ~off:0 ~f:(fun kind _ _ -> if kind = Types.Data_chunk then incr count);
  Alcotest.(check int) "all records via chain" n !count

let test_log_usage_and_barrier () =
  let _, store = Untrusted_store.open_mem () in
  let log = Log.create store test_cfg in
  let payload = String.make 500 'x' in
  let entries =
    List.init 14 (fun _ ->
        let seg, off = Log.append log Types.Data_chunk payload in
        { Types.seg; off; len = 500; hash = ""; version = 0 })
  in
  Alcotest.(check int) "usage counts everything" (14 * Log.record_space 500) (Log.live_bytes log);
  (* obsolete all the records that landed in segment 0 *)
  let seg0, rest = List.partition (fun e -> e.Types.seg = 0) entries in
  Alcotest.(check bool) "multiple segments used" true (rest <> []);
  List.iter (Log.obsolete_entry log) seg0;
  Log.end_checkpoint log;
  (* the emptied segment is no longer a cleaning candidate, and the live
     accounting matches the surviving records exactly *)
  Alcotest.(check bool) "segment 0 not a candidate" true (not (List.mem 0 (Log.clean_candidates log)));
  Alcotest.(check int) "usage tracks live" (List.length rest * Log.record_space 500) (Log.live_bytes log)

let test_log_clean_candidate_order () =
  let _, store = Untrusted_store.open_mem () in
  let log = Log.create store test_cfg in
  let payload = String.make 500 'x' in
  let entries =
    List.init 28 (fun _ ->
        let seg, off = Log.append log Types.Data_chunk payload in
        { Types.seg; off; len = 500; hash = ""; version = 0 })
  in
  let tail, _ = Log.tail_pos log in
  Alcotest.(check bool) "several full segments" true (tail >= 3);
  let segs = List.init tail Fun.id in
  (* leave MORE live data in LOWER segments, so utilization order is the
     reverse of segment order: the cleaner must pick the
     emptiest segment first, not the lowest-numbered *)
  List.iter
    (fun s ->
      let in_seg = List.filter (fun e -> e.Types.seg = s) entries in
      let keep = tail - s in
      List.iteri (fun i e -> if i >= keep then Log.obsolete_entry log e) in_seg)
    segs;
  Log.end_checkpoint log;
  Alcotest.(check (list int)) "emptiest segment first" (List.rev segs) (Log.clean_candidates log)

(* Recovery replays the residual chain from the anchor; until the checkpoint
   that ends recovery lands, a crash replays it again, so no barrier may
   free its segments, even ones holding only (uncharged) commit records. *)
let test_log_recovery_residual () =
  let _, store = Untrusted_store.open_mem () in
  let log = Log.create store test_cfg in
  for _ = 1 to 10 do
    ignore (Log.append ~live:false log Types.Commit (String.make 1000 'c'))
  done;
  Log.flush log;
  let last, _ = Log.tail_pos log in
  Alcotest.(check bool) "chain spans segments" true (last >= 2);
  let rlog = Log.of_recovery store test_cfg ~tail_seg:0 ~tail_off:0 ~usage:(Hashtbl.create 8) in
  Log.scan_chain rlog ~seg:0 ~off:0 ~f:(fun _ _ _ -> ());
  rlog.Log.tail_seg <- last;
  let chain = List.init last Fun.id in
  let freed () = List.filter (fun s -> List.mem s rlog.Log.free) chain in
  Log.barrier rlog;
  Alcotest.(check (list int)) "chain kept at the recovery barrier" [] (freed ());
  Log.end_checkpoint rlog;
  Alcotest.(check (list int)) "chain freed by the checkpoint" chain (freed ())

(* A staged barrier holds the log once its record is appended: a segment
   emptied after [hold] (by a commit landing behind the barrier's record)
   survives that barrier and frees at the next one, while segments grown
   meanwhile are free at once. *)
let test_log_hold () =
  let _, store = Untrusted_store.open_mem () in
  let log = Log.create store test_cfg in
  let payload = String.make 500 'x' in
  let entries =
    List.init 28 (fun _ ->
        let seg, off = Log.append log Types.Data_chunk payload in
        { Types.seg; off; len = 500; hash = ""; version = 0 })
  in
  let tail, _ = Log.tail_pos log in
  Alcotest.(check bool) "two segments behind the tail" true (tail >= 2);
  let empty s = List.iter (Log.obsolete_entry log) (List.filter (fun e -> e.Types.seg = s) entries) in
  let is_free s = List.mem s log.Log.free in
  (* a checkpoint ends the residual window, so barriers may free *)
  Log.end_checkpoint log;
  empty 0;
  Log.hold log;
  empty 1;
  let first = Log.nsegments log in
  Log.grow log ~segments:2;
  Log.barrier log;
  Alcotest.(check bool) "emptied before the hold: freed" true (is_free 0);
  Alcotest.(check bool) "emptied after the hold: kept" false (is_free 1);
  Alcotest.(check (list bool)) "grown after the hold: free" [ true; true ] [ is_free first; is_free (first + 1) ];
  Log.barrier log;
  Alcotest.(check bool) "freed by the next barrier" true (is_free 1)

let test_log_pinning () =
  let _, store = Untrusted_store.open_mem () in
  let log = Log.create store test_cfg in
  Log.pin log 3;
  Log.pin log 3;
  Alcotest.(check bool) "pinned" true (Log.is_pinned log 3);
  Log.unpin log 3;
  Alcotest.(check bool) "still pinned" true (Log.is_pinned log 3);
  Log.unpin log 3;
  Alcotest.(check bool) "unpinned" false (Log.is_pinned log 3);
  Alcotest.(check bool) "overunpin rejected" true
    (match Log.unpin log 3 with exception Invalid_argument _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Anchor                                                              *)
(* ------------------------------------------------------------------ *)

let anchor_payload epoch =
  {
    Anchor.epoch;
    segment_size = test_cfg.Config.segment_size;
    map_fanout = test_cfg.Config.map_fanout;
    map_depth = test_cfg.Config.map_depth;
    seq = 42;
    root = Some { Types.seg = 1; off = 2; len = 3; hash = "h"; version = 4 };
    tail_seg = 5;
    tail_off = 6;
    counter = 7L;
    next_id = 8;
    chain = "chainvalue";
    snapshots = [ (1, Some { Types.seg = 9; off = 10; len = 11; hash = "s"; version = 12 }, 13) ];
  }

let test_anchor_roundtrip_and_epoch () =
  let sec = sec_on () in
  let _, store = Untrusted_store.open_mem () in
  Untrusted_store.set_size store (2 * 2048);
  Anchor.write sec store ~slot_size:2048 (anchor_payload 1);
  Anchor.write sec store ~slot_size:2048 (anchor_payload 2);
  (match Anchor.read sec store ~slot_size:2048 with
  | Some p ->
      Alcotest.(check int) "newest epoch wins" 2 p.Anchor.epoch;
      Alcotest.(check int) "payload intact" 42 p.Anchor.seq;
      Alcotest.(check int64) "counter" 7L p.Anchor.counter
  | None -> Alcotest.fail "no anchor");
  (* torn write of the newest slot: the older one still loads *)
  Untrusted_store.write store ~off:0 (String.make 64 '\xff');
  (match Anchor.read sec store ~slot_size:2048 with
  | Some p -> Alcotest.(check int) "fallback to valid slot" 1 (p.Anchor.epoch land 1)
  | None -> Alcotest.fail "anchor lost after single-slot corruption")

let test_anchor_seed_format_identity () =
  (* An anchor must encode byte-identically to the seed format — here
     rebuilt by hand, field by field. Stores written with generational
     cleaning appended a (segment, tier) table; decode must accept and
     drop it, and must reject one cut short. *)
  let p = anchor_payload 1 in
  let seed_bytes =
    let module P = Tdb_pickle.Pickle in
    let w = P.writer () in
    P.uint w p.Anchor.epoch;
    P.uint w p.Anchor.segment_size;
    P.uint w p.Anchor.map_fanout;
    P.uint w p.Anchor.map_depth;
    P.uint w p.Anchor.seq;
    P.option w (fun w e -> Location_map.write_entry w e) p.Anchor.root;
    P.uint w p.Anchor.tail_seg;
    P.uint w p.Anchor.tail_off;
    P.int64 w p.Anchor.counter;
    P.uint w p.Anchor.next_id;
    P.string w p.Anchor.chain;
    P.list w
      (fun w (id, e, seq) ->
        P.uint w id;
        P.option w (fun w e -> Location_map.write_entry w e) e;
        P.uint w seq)
      p.Anchor.snapshots;
    P.contents w
  in
  Alcotest.(check string) "anchor = seed bytes" seed_bytes (Anchor.encode p);
  let d = Anchor.decode seed_bytes in
  Alcotest.(check int) "seed bytes decode intact" p.Anchor.seq d.Anchor.seq;
  let tier_table =
    let module P = Tdb_pickle.Pickle in
    let w = P.writer () in
    P.list w
      (fun w (seg, tier) ->
        P.uint w seg;
        P.uint w tier)
      [ (3, 1); (4, 2); (300, 2) ];
    P.contents w
  in
  let tiered = seed_bytes ^ tier_table in
  Alcotest.(check bool) "tier table decodes to the seed payload" true (Anchor.decode tiered = d);
  let cut = String.sub tiered 0 (String.length tiered - 1) in
  Alcotest.(check bool) "truncated tier table rejected" true
    (match Anchor.decode cut with exception Tdb_pickle.Pickle.Error _ -> true | _ -> false)

let test_anchor_wrong_key_rejected () =
  let sec = sec_on () in
  let _, store = Untrusted_store.open_mem () in
  Untrusted_store.set_size store (2 * 2048);
  Anchor.write sec store ~slot_size:2048 (anchor_payload 1);
  let other = Security.create test_cfg (Secret_store.of_seed "attacker") in
  Alcotest.(check bool) "foreign key sees no anchor" true (Anchor.read other store ~slot_size:2048 = None)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

type blob = { v : int }

let blob_cls : blob Tdb_objstore.Obj_class.t =
  Tdb_objstore.Obj_class.define ~name:"units.blob"
    ~pickle:(fun w b -> Tdb_pickle.Pickle.int w b.v)
    ~unpickle:(fun ~version:_ r -> { v = Tdb_pickle.Pickle.read_int r })
    ()

(* [(hits, misses, evictions)], [resident] and [total_size] in one check *)
let check_lru name c ~stats ~resident ~total =
  let open Tdb_chunk in
  Alcotest.(check (triple int int int)) (name ^ ": stats") stats (Lru.stats c);
  Alcotest.(check int) (name ^ ": resident") resident (Lru.resident c);
  Alcotest.(check int) (name ^ ": total_size") total (Lru.total_size c)

let test_lru_eviction () =
  let open Tdb_chunk in
  let c = Lru.create ~budget:1000 in
  for i = 0 to 9 do
    ignore (Lru.put c i i ~size:200)
  done;
  (* only 5 fit; the oldest were evicted *)
  check_lru "after puts" c ~stats:(0, 0, 5) ~resident:5 ~total:1000;
  Alcotest.(check bool) "newest present" true (Lru.find c 9 <> None);
  Alcotest.(check bool) "oldest evicted" true (Lru.find c 0 = None);
  check_lru "after finds" c ~stats:(1, 1, 5) ~resident:5 ~total:1000

let test_lru_pin_blocks_eviction () =
  let open Tdb_chunk in
  let c = Lru.create ~budget:400 in
  let e0 = Lru.put c 0 0 ~size:200 in
  Lru.pin e0;
  for i = 1 to 9 do
    ignore (Lru.put c i i ~size:200)
  done;
  Alcotest.(check bool) "pinned survives" true (Lru.find c 0 <> None);
  Lru.unpin c e0;
  for i = 10 to 14 do
    ignore (Lru.put c i i ~size:200)
  done;
  Alcotest.(check bool) "evictable once unpinned" true (Lru.find c 0 = None);
  Alcotest.check_raises "unpin an unpinned entry" (Invalid_argument "Lru.unpin: not pinned") (fun () ->
      Lru.unpin c e0)

let test_lru_touch_refreshes () =
  let open Tdb_chunk in
  let c = Lru.create ~budget:600 in
  for i = 0 to 2 do
    ignore (Lru.put c i i ~size:200)
  done;
  ignore (Lru.find c 0);
  (* 0 is now MRU *)
  ignore (Lru.put c 3 3 ~size:200);
  Alcotest.(check bool) "refreshed entry kept" true (Lru.find c 0 <> None);
  Alcotest.(check bool) "true LRU evicted" true (Lru.find c 1 = None)

(* A value failing [valid] is dropped and counted as a miss, not an
   eviction; a passing one is a hit. *)
let test_lru_valid_rejects () =
  let open Tdb_chunk in
  let c = Lru.create ~budget:1000 in
  ignore (Lru.put c 1 10 ~size:100);
  ignore (Lru.put c 2 20 ~size:150);
  Alcotest.(check bool) "rejected" true (Lru.find c 1 ~valid:(fun v -> Int.equal v 11) = None);
  check_lru "after rejection" c ~stats:(0, 1, 0) ~resident:1 ~total:150;
  Alcotest.(check bool) "rejected entry is gone" true (Lru.find c 1 = None);
  Alcotest.(check (option int)) "accepted" (Some 20)
    (Option.map Lru.value (Lru.find c 2 ~valid:(fun v -> Int.equal v 20)));
  check_lru "after acceptance" c ~stats:(1, 2, 0) ~resident:1 ~total:150

let test_lru_remove () =
  let open Tdb_chunk in
  let c = Lru.create ~budget:1000 in
  ignore (Lru.put c 1 1 ~size:100);
  ignore (Lru.put c 2 2 ~size:150);
  Lru.remove c 1;
  Lru.remove c 7;
  check_lru "after remove" c ~stats:(0, 0, 0) ~resident:1 ~total:150;
  Alcotest.(check bool) "removed entry is gone" true (Lru.find c 1 = None)

(* [drop_all] refuses while an entry is pinned, dropping nothing; the
   counters survive a successful drop. *)
let test_lru_drop_all_pinned () =
  let open Tdb_chunk in
  let c = Lru.create ~budget:1000 in
  let e1 = Lru.put c 1 1 ~size:100 in
  ignore (Lru.put c 2 2 ~size:150);
  Lru.pin e1;
  ignore (Lru.find c 2);
  Alcotest.check_raises "pinned entry" (Invalid_argument "Lru.drop_all: pinned entry") (fun () -> Lru.drop_all c);
  check_lru "after refused drop" c ~stats:(1, 0, 0) ~resident:2 ~total:250;
  Lru.unpin c e1;
  Lru.drop_all c;
  check_lru "after drop" c ~stats:(1, 0, 0) ~resident:0 ~total:0

(* Shrinking the budget below a pinned entry evicts everything else and
   leaves the total over budget until the pin goes. *)
let test_lru_shrink_below_pinned () =
  let open Tdb_chunk in
  let c = Lru.create ~budget:1000 in
  let e1 = Lru.put c 1 1 ~size:300 in
  Lru.pin e1;
  ignore (Lru.put c 2 2 ~size:300);
  ignore (Lru.put c 3 3 ~size:300);
  Lru.set_budget c 200;
  check_lru "after shrink" c ~stats:(0, 0, 2) ~resident:1 ~total:300;
  Alcotest.(check int) "budget" 200 (Lru.budget c);
  Lru.unpin c e1;
  check_lru "after unpin" c ~stats:(0, 0, 3) ~resident:0 ~total:0

(* A walk parks the pinned entries at the LRU end and evicts only
   unpinned ones; the next walk does not meet them again. A find on a
   parked entry is a hit that leaves it parked; at its last unpin it
   re-enters at the MRU end, so an older unpinned entry goes first. *)
let test_lru_park_pinned () =
  let open Tdb_chunk in
  let c = Lru.create ~budget:600 in
  let e1 = Lru.put c 1 1 ~size:200 in
  Lru.pin e1;
  let e2 = Lru.put c 2 2 ~size:200 in
  Lru.pin e2;
  ignore (Lru.put c 3 3 ~size:200);
  ignore (Lru.put c 4 4 ~size:200);
  check_lru "after put 4" c ~stats:(0, 0, 1) ~resident:3 ~total:600;
  ignore (Lru.put c 5 5 ~size:200);
  check_lru "after put 5" c ~stats:(0, 0, 2) ~resident:3 ~total:600;
  Alcotest.(check bool) "parked entry hits" true (Lru.find c 2 <> None);
  check_lru "after find" c ~stats:(1, 0, 2) ~resident:3 ~total:600;
  Lru.unpin c e1;
  ignore (Lru.put c 6 6 ~size:200);
  check_lru "after put 6" c ~stats:(1, 0, 3) ~resident:3 ~total:600;
  Alcotest.(check bool) "unpinned entry at MRU kept" true (Lru.find c 1 <> None);
  Alcotest.(check bool) "older entry evicted" true (Lru.find c 5 = None);
  check_lru "after finds" c ~stats:(2, 1, 3) ~resident:3 ~total:600;
  Lru.unpin c e2;
  ignore (Lru.put c 7 7 ~size:200);
  Alcotest.(check bool) "re-entered entry kept" true (Lru.find c 2 <> None);
  check_lru "after unpin 2" c ~stats:(3, 1, 4) ~resident:3 ~total:600

(* A put never evicts its own entry: one larger than the budget stays,
   over budget, until the next put's walk. *)
let test_lru_oversize_put () =
  let open Tdb_chunk in
  let c = Lru.create ~budget:100 in
  ignore (Lru.put c 1 1 ~size:300);
  check_lru "oversize kept" c ~stats:(0, 0, 0) ~resident:1 ~total:300;
  ignore (Lru.put c 2 2 ~size:50);
  check_lru "next put evicts it" c ~stats:(0, 0, 1) ~resident:1 ~total:50;
  Alcotest.(check bool) "oversize entry gone" true (Lru.find c 1 = None)

(* ------------------------------------------------------------------ *)
(* Lock manager                                                        *)
(* ------------------------------------------------------------------ *)

let test_locks_shared_compatible () =
  let open Tdb_objstore in
  let lm = Lock_manager.create () in
  let mu = Mutex.create () in
  Mutex.lock mu;
  Lock_manager.acquire lm ~mu ~txn:1 ~oid:7 ~mode:Lock_manager.Shared ~timeout:0.05;
  Lock_manager.acquire lm ~mu ~txn:2 ~oid:7 ~mode:Lock_manager.Shared ~timeout:0.05;
  Alcotest.(check bool) "both shared" true (Lock_manager.mode_of lm ~txn:2 ~oid:7 = Some Lock_manager.Shared);
  (* exclusive blocked while the other holder exists *)
  Alcotest.(check bool) "upgrade blocked" true
    (match Lock_manager.acquire lm ~mu ~txn:1 ~oid:7 ~mode:Lock_manager.Exclusive ~timeout:0.05 with
    | exception Lock_manager.Lock_timeout _ -> true
    | () -> false);
  Lock_manager.release_all lm ~txn:2;
  (* now the upgrade succeeds *)
  Lock_manager.acquire lm ~mu ~txn:1 ~oid:7 ~mode:Lock_manager.Exclusive ~timeout:0.05;
  Alcotest.(check bool) "upgraded" true (Lock_manager.mode_of lm ~txn:1 ~oid:7 = Some Lock_manager.Exclusive);
  Lock_manager.release_all lm ~txn:1;
  Alcotest.(check int) "table empty" 0 (Lock_manager.held_count lm);
  Mutex.unlock mu

let test_locks_reentrant () =
  let open Tdb_objstore in
  let lm = Lock_manager.create () in
  let mu = Mutex.create () in
  Mutex.lock mu;
  Lock_manager.acquire lm ~mu ~txn:1 ~oid:1 ~mode:Lock_manager.Exclusive ~timeout:0.05;
  Lock_manager.acquire lm ~mu ~txn:1 ~oid:1 ~mode:Lock_manager.Exclusive ~timeout:0.05;
  Lock_manager.acquire lm ~mu ~txn:1 ~oid:1 ~mode:Lock_manager.Shared ~timeout:0.05;
  Alcotest.(check bool) "still exclusive" true (Lock_manager.mode_of lm ~txn:1 ~oid:1 = Some Lock_manager.Exclusive);
  Mutex.unlock mu

(* ------------------------------------------------------------------ *)
(* Index structures (directly, over an object store)                   *)
(* ------------------------------------------------------------------ *)

(* An in-memory database that [reopen_os] can open again, as after a
   restart. *)
type mem_db = { db_store : Untrusted_store.t; db_ctr : One_way_counter.t; db_secret : Secret_store.t }

let mem_db () =
  let _, db_store = Untrusted_store.open_mem () in
  let _, db_ctr = One_way_counter.open_mem () in
  { db_store; db_ctr; db_secret = Secret_store.of_seed "ix" }

let create_os db =
  Tdb_objstore.Object_store.of_shard_store
    (Chunk_store.create ~config:test_cfg ~secret:db.db_secret ~counter:db.db_ctr db.db_store)

let reopen_os db =
  Tdb_objstore.Object_store.of_shard_store
    (Chunk_store.open_existing ~config:test_cfg ~secret:db.db_secret ~counter:db.db_ctr db.db_store)

let fresh_os () = create_os (mem_db ())

let test_btree_index_ordering () =
  let open Tdb_collection in
  let os = fresh_os () in
  let x = Tdb_objstore.Object_store.begin_ os in
  let anchor = Index.create_anchor x Indexer.Btree in
  let ops = Index.ops_of ~index_name:"t" ~unique:false ~impl:Indexer.Btree Gkey.int in
  (* insert shuffled keys, some duplicated *)
  let n = 200 in
  for i = 0 to n - 1 do
    let k = i * 37 mod n in
    Index.insert x ops anchor ~key:(Gkey.to_bytes Gkey.int k) ~oid:(1000 + i)
  done;
  Alcotest.(check int) "count" n (Index.count x Indexer.Btree anchor);
  let all = Index.scan x ops anchor in
  Alcotest.(check int) "scan count" n (List.length all);
  (* range [50,59] *)
  let r =
    Index.range x ops anchor ~min:(Some (Gkey.to_bytes Gkey.int 50)) ~max:(Some (Gkey.to_bytes Gkey.int 59))
  in
  Alcotest.(check int) "range" 10 (List.length r);
  (* delete one (key, oid) pair and re-check *)
  let victim_oid = List.hd (Index.exact x ops anchor ~key:(Gkey.to_bytes Gkey.int 55)) in
  Index.delete x ops anchor ~key:(Gkey.to_bytes Gkey.int 55) ~oid:victim_oid;
  Alcotest.(check int) "one fewer" (n - 1) (Index.count x Indexer.Btree anchor);
  Alcotest.(check bool) "specific pair gone" true
    (not (List.mem victim_oid (Index.exact x ops anchor ~key:(Gkey.to_bytes Gkey.int 55))));
  Tdb_objstore.Object_store.commit x

let test_hash_index_growth () =
  let open Tdb_collection in
  let os = fresh_os () in
  let x = Tdb_objstore.Object_store.begin_ os in
  let anchor = Index.create_anchor x Indexer.Hash in
  let ops = Index.ops_of ~index_name:"h" ~unique:true ~impl:Indexer.Hash Gkey.int in
  let n = 500 (* forces many bucket splits and directory-segment growth *) in
  for i = 0 to n - 1 do
    Index.insert x ops anchor ~key:(Gkey.to_bytes Gkey.int i) ~oid:(5000 + i)
  done;
  for i = 0 to n - 1 do
    Alcotest.(check (list int)) "exact" [ 5000 + i ] (Index.exact x ops anchor ~key:(Gkey.to_bytes Gkey.int i))
  done;
  Alcotest.(check bool) "dup rejected" true
    (match Index.insert x ops anchor ~key:(Gkey.to_bytes Gkey.int 3) ~oid:9 with
    | exception Index.Duplicate_key _ -> true
    | () -> false);
  Alcotest.(check int) "scan" n (List.length (Index.scan x ops anchor));
  Tdb_objstore.Object_store.commit x

let test_list_index_order_preserved () =
  let open Tdb_collection in
  let os = fresh_os () in
  let x = Tdb_objstore.Object_store.begin_ os in
  let anchor = Index.create_anchor x Indexer.List in
  let ops = Index.ops_of ~index_name:"l" ~unique:false ~impl:Indexer.List Gkey.int in
  for i = 0 to 199 do
    Index.insert x ops anchor ~key:(Gkey.to_bytes Gkey.int i) ~oid:(100 + i)
  done;
  let all = Index.scan x ops anchor in
  Alcotest.(check int) "count" 200 (List.length all);
  Alcotest.(check (list int)) "insertion order" (List.init 200 (fun i -> 100 + i)) all;
  Tdb_objstore.Object_store.commit x

let list_ops = Tdb_collection.(Index.ops_of ~index_name:"l" ~unique:false ~impl:Indexer.List Gkey.int)
let int_key i = Tdb_collection.(Gkey.to_bytes Gkey.int i)

let test_list_insert_leaves_anchor () =
  let open Tdb_collection in
  let module Os = Tdb_objstore.Object_store in
  let os = fresh_os () in
  let cs = Os.chunk_store os in
  let anchor = Os.with_txn os (fun x -> Index.create_anchor x Indexer.List) in
  let before = Chunk_store.snapshot cs in
  for i = 0 to 99 do
    Os.with_txn ~durable:false os (fun x -> Index.insert x list_ops anchor ~key:(int_key i) ~oid:(100 + i))
  done;
  let after = Chunk_store.snapshot cs in
  let changed = ref [] in
  Chunk_store.diff_snapshots cs ~old_id:before ~new_id:after
    ~changed:(fun cid _ -> changed := cid :: !changed)
    ~removed:(fun cid -> Alcotest.failf "chunk %d removed" cid);
  Alcotest.(check bool) "anchor chunk unchanged" false (List.mem anchor !changed);
  (* 100 pairs, 8 to a node: the head (4 pairs) and 12 spilled nodes *)
  Alcotest.(check int) "head + spilled nodes written" 13 (List.length !changed);
  Os.with_txn os (fun x ->
      Alcotest.(check int) "count" 100 (Index.count x Indexer.List anchor);
      Alcotest.(check (list int)) "insertion order" (List.init 100 (fun i -> 100 + i)) (Index.scan x list_ops anchor))

(* A list as the code before version 2 of the node class wrote it: the
   anchor names the newest node and holds the count; nodes carry none. *)
let test_list_version1_head () =
  let open Tdb_collection in
  let module Os = Tdb_objstore.Object_store in
  let module P = Tdb_pickle.Pickle in
  let db = mem_db () in
  let os = create_os db in
  let cs = Os.chunk_store os in
  let pickle_v1 name f =
    let w = P.writer () in
    P.string w name;
    P.uint w 1;
    f w;
    P.contents w
  in
  let node pairs lnext =
    pickle_v1 "tdb.index.list_node" (fun w ->
        P.list w
          (fun w (k, o) ->
            P.string w (int_key k);
            P.uint w o)
          pairs;
        P.option w P.uint lnext)
  in
  let anchor_v1 root count =
    pickle_v1 "tdb.index.anchor" (fun w ->
        P.option w P.uint root;
        P.uint w count;
        P.list w P.uint [];
        P.uint w 0;
        P.uint w 0)
  in
  let tail = Chunk_store.allocate cs and head = Chunk_store.allocate cs and anchor = Chunk_store.allocate cs in
  Chunk_store.write cs tail (node [ (1, 11); (0, 10) ] None);
  Chunk_store.write cs head (node [ (2, 12) ] (Some tail));
  (* a count no walk of the three pairs would give, so the test sees
     where the count is read from *)
  let anchor_bytes = anchor_v1 (Some head) 5 in
  Chunk_store.write cs anchor anchor_bytes;
  (* an empty list of that era has no head node at all *)
  let empty = Chunk_store.allocate cs in
  Chunk_store.write cs empty (anchor_v1 None 0);
  Chunk_store.commit cs;
  Os.with_txn os (fun x ->
      Alcotest.(check int) "count from the anchor" 5 (Index.count x Indexer.List anchor);
      Alcotest.(check (list int)) "scan" [ 10; 11; 12 ] (Index.scan x list_ops anchor);
      Index.insert x list_ops anchor ~key:(int_key 3) ~oid:13);
  let r = P.reader (Chunk_store.read cs head) in
  Alcotest.(check string) "head class" "tdb.index.list_node" (P.read_string r);
  Alcotest.(check int) "head rewritten at version 2" 2 (P.read_uint r);
  Alcotest.(check string) "anchor untouched" anchor_bytes (Chunk_store.read cs anchor);
  Os.close os;
  let os = reopen_os db in
  Os.with_txn os (fun x ->
      Alcotest.(check int) "count moved into the head" 6 (Index.count x Indexer.List anchor);
      Alcotest.(check (list int)) "scan after insert" [ 10; 11; 12; 13 ] (Index.scan x list_ops anchor);
      Index.delete x list_ops anchor ~key:(int_key 0) ~oid:10;
      Alcotest.(check int) "delete from the tail" 5 (Index.count x Indexer.List anchor);
      Alcotest.(check int) "empty list" 0 (Index.count x Indexer.List empty);
      Index.insert x list_ops empty ~key:(int_key 7) ~oid:20;
      Index.insert x list_ops empty ~key:(int_key 8) ~oid:21);
  Os.with_txn os (fun x ->
      Alcotest.(check int) "empty list gained a head" 2 (Index.count x Indexer.List empty);
      Alcotest.(check (list int)) "its scan" [ 20; 21 ] (Index.scan x list_ops empty))

(* Inserts into one list open its anchor shared and its head exclusive, so
   concurrent inserters queue on the head and never upgrade a lock. *)
let test_list_concurrent_inserts () =
  let open Tdb_collection in
  let module Os = Tdb_objstore.Object_store in
  let os = fresh_os () in
  let anchor = Os.with_txn os (fun x -> Index.create_anchor x Indexer.List) in
  let nthreads = 4 and per_thread = 50 in
  let timeouts = Atomic.make 0 in
  let worker tid =
    for i = 1 to per_thread do
      let oid = (tid * 1000) + i in
      match Os.with_txn ~durable:false os (fun x -> Index.insert x list_ops anchor ~key:(int_key oid) ~oid) with
      | () -> ()
      | exception Tdb_objstore.Lock_manager.Lock_timeout _ -> Atomic.incr timeouts
    done
  in
  List.iter Thread.join (List.init nthreads (fun tid -> Thread.create worker tid));
  Alcotest.(check int) "lock timeouts" 0 (Atomic.get timeouts);
  Os.with_txn os (fun x ->
      Alcotest.(check int) "count" (nthreads * per_thread) (Index.count x Indexer.List anchor);
      let all = Index.scan x list_ops anchor in
      for tid = 0 to nthreads - 1 do
        Alcotest.(check (list int))
          (Printf.sprintf "thread %d in order" tid)
          (List.init per_thread (fun i -> (tid * 1000) + i + 1))
          (List.filter (fun o -> o / 1000 = tid) all)
      done)

(* ------------------------------------------------------------------ *)
(* Sim disk & workload                                                 *)
(* ------------------------------------------------------------------ *)

let test_sim_disk_charges () =
  let open Tdb_tpcb in
  let clock = Sim_disk.clock () in
  let m = Sim_disk.paper_platform in
  let _, raw = Untrusted_store.open_mem () in
  let s = Sim_disk.wrap_store m clock raw in
  Untrusted_store.write s ~off:0 (String.make 100 'x');
  let after_first = clock.Sim_disk.elapsed in
  Alcotest.(check bool) "first write pays positioning" true (after_first >= m.Sim_disk.position_s);
  Untrusted_store.write s ~off:100 (String.make 100 'x');
  Alcotest.(check bool) "sequential write is cheap" true
    (clock.Sim_disk.elapsed -. after_first < m.Sim_disk.position_s /. 2.);
  let before_sync = clock.Sim_disk.elapsed in
  Untrusted_store.sync s;
  Alcotest.(check bool) "sync with pending pays force" true
    (clock.Sim_disk.elapsed -. before_sync >= m.Sim_disk.force_s);
  let before = clock.Sim_disk.elapsed in
  Untrusted_store.sync s;
  Alcotest.(check bool) "idle sync free" true (clock.Sim_disk.elapsed = before)

let test_workload_flat_roundtrip () =
  let open Tdb_tpcb in
  let r = Workload.make_record ~id:77 ~balance:(-12345) in
  let flat = Workload.flat_of_record r in
  Alcotest.(check int) "100 bytes" Workload.record_size (String.length flat);
  let r' = Workload.record_of_flat flat in
  Alcotest.(check int) "id" 77 r'.Workload.id;
  Alcotest.(check int) "negative balance" (-12345) r'.Workload.balance

let test_workload_record_pickled_size () =
  let open Tdb_tpcb in
  let w = Tdb_pickle.Pickle.writer () in
  Workload.pickle_record w (Workload.make_record ~id:1 ~balance:0);
  Alcotest.(check int) "pickled record is 100 bytes" Workload.record_size
    (Tdb_pickle.Pickle.writer_length w)

let test_workload_txn_gen_in_bounds () =
  let open Tdb_tpcb in
  let rng = Tdb_crypto.Drbg.create ~seed:"wl" in
  let s = Workload.default_scale in
  for _ = 1 to 500 do
    let t = Workload.gen_txn rng s in
    assert (t.Workload.account >= 0 && t.Workload.account < s.Workload.accounts);
    assert (t.Workload.teller >= 0 && t.Workload.teller < s.Workload.tellers);
    assert (t.Workload.branch >= 0 && t.Workload.branch < s.Workload.branches);
    assert (abs t.Workload.delta <= 999_999)
  done

(* ------------------------------------------------------------------ *)
(* Baseline page serialization                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_page_roundtrip =
  QCheck.Test.make ~name:"page node roundtrip" ~count:100
    QCheck.(
      pair bool (small_list (pair (string_of_size Gen.(1 -- 20)) (string_of_size Gen.(0 -- 60)))))
    (fun (leaf, items) ->
      let open Tdb_baseline in
      let node =
        if leaf then Page.Leaf { items = List.sort compare items; next = 7 }
        else
          Page.Internal
            { keys = List.map fst items; kids = List.init (List.length items + 1) (fun i -> i + 1) }
      in
      QCheck.assume (Page.estimate node <= Page.content_budget);
      let s = Page.serialize node in
      String.length s = Page.page_size
      &&
      match (node, Page.deserialize s) with
      | Page.Leaf { items = i1; next = n1 }, Page.Leaf { items = i2; next = n2 } -> i1 = i2 && n1 = n2
      | Page.Internal { keys = k1; kids = c1 }, Page.Internal { keys = k2; kids = c2 } -> k1 = k2 && c1 = c2
      | _ -> false)

let qcheck_pickle_array =
  QCheck.Test.make ~name:"pickle array roundtrip" ~count:100
    QCheck.(array small_int)
    (fun a ->
      let w = Tdb_pickle.Pickle.writer () in
      Tdb_pickle.Pickle.array w Tdb_pickle.Pickle.int a;
      let r = Tdb_pickle.Pickle.reader (Tdb_pickle.Pickle.contents w) in
      let l = Tdb_pickle.Pickle.read_list r Tdb_pickle.Pickle.read_int in
      Tdb_pickle.Pickle.at_end r && l = Array.to_list a)

(* ------------------------------------------------------------------ *)
(* Concurrency torture: threads over collections with locking on       *)
(* ------------------------------------------------------------------ *)

let test_concurrent_collection_torture () =
  let _, store = Untrusted_store.open_mem () in
  let _, ctr = One_way_counter.open_mem () in
  let os =
    Tdb_objstore.Object_store.of_shard_store
      ~config:{ Tdb_objstore.Object_store.default_config with Tdb_objstore.Object_store.lock_timeout = 0.2 }
      (Chunk_store.create ~config:test_cfg ~secret:(Secret_store.of_seed "torture") ~counter:ctr store)
  in
  let open Tdb_collection in
  let ix = Indexer.make ~name:"id" ~key:Gkey.int ~extract:(fun (b : blob) -> b.v mod 100) ~impl:Indexer.Btree () in
  Cstore.with_ctxn os (fun ct ->
      let c = Cstore.create_collection ct ~name:"torture" ~schema:blob_cls ix in
      for i = 0 to 19 do
        ignore (Cstore.insert ct c { v = i })
      done);
  let errors = ref 0 and emu = Mutex.create () in
  let worker tid =
    for _ = 1 to 25 do
      let rec attempt retries =
        if retries > 0 then
          match
            Cstore.with_ctxn ~durable:false os (fun ct ->
                let c = Cstore.open_collection ct ~name:"torture" ~schema:blob_cls ~indexers:[ Indexer.Generic ix ] in
                ignore (Cstore.insert ct c { v = (tid * 1000) + retries + 100 }))
          with
          | () -> ()
          | exception Tdb_objstore.Lock_manager.Lock_timeout _ -> attempt (retries - 1)
      in
      attempt 20
    done
  in
  let threads = List.init 4 (fun tid -> Thread.create worker tid) in
  List.iter Thread.join threads;
  ignore (Mutex.try_lock emu);
  Alcotest.(check int) "no unexpected errors" 0 !errors;
  (* everything readable and the index consistent *)
  Cstore.with_ctxn os (fun ct ->
      let c = Cstore.open_collection ct ~name:"torture" ~schema:blob_cls ~indexers:[ Indexer.Generic ix ] in
      let it = Cstore.scan ct c ix in
      let n = ref 0 in
      while not (Cstore.at_end it) do
        ignore (Cstore.read it);
        incr n;
        Cstore.advance it
      done;
      Cstore.close it;
      Alcotest.(check int) "all inserts present" (20 + (4 * 25)) !n;
      Alcotest.(check int) "size agrees" !n (Cstore.size ct c))

(* ------------------------------------------------------------------ *)
(* QCheck model tests for the index structures                         *)
(* ------------------------------------------------------------------ *)

let index_model_test impl name =
  QCheck.Test.make ~name ~count:20
    QCheck.(list (triple (int_range 0 40) (int_range 0 5) bool))
    (fun ops ->
      let open Tdb_collection in
      let os = fresh_os () in
      let x = Tdb_objstore.Object_store.begin_ os in
      let anchor = Index.create_anchor x impl in
      let iops = Index.ops_of ~index_name:"m" ~unique:false ~impl Gkey.int in
      (* model: multiset of (key, oid) pairs *)
      let model : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (k, salt, is_insert) ->
          let oid = (k * 10) + salt in
          let kb = Gkey.to_bytes Gkey.int k in
          if is_insert then begin
            if not (Hashtbl.mem model (k, oid)) then begin
              Index.insert x iops anchor ~key:kb ~oid;
              Hashtbl.replace model (k, oid) ()
            end
          end
          else if Hashtbl.mem model (k, oid) then begin
            Index.delete x iops anchor ~key:kb ~oid;
            Hashtbl.remove model (k, oid)
          end)
        ops;
      (* exact queries agree with the model for every key *)
      let ok = ref (Index.count x impl anchor = Hashtbl.length model) in
      for k = 0 to 40 do
        let expect =
          Hashtbl.fold (fun (k', o) () acc -> if k' = k then o :: acc else acc) model []
          |> List.sort compare
        in
        let got = Index.exact x iops anchor ~key:(Gkey.to_bytes Gkey.int k) |> List.sort compare in
        if expect <> got then ok := false
      done;
      (* scan covers exactly the model *)
      let scanned = Index.scan x iops anchor |> List.sort compare in
      let all = Hashtbl.fold (fun (_, o) () acc -> o :: acc) model [] |> List.sort compare in
      Tdb_objstore.Object_store.commit x;
      !ok && scanned = all)

let qcheck_btree_model = index_model_test Tdb_collection.Indexer.Btree "btree matches model"
let qcheck_hash_model = index_model_test Tdb_collection.Indexer.Hash "hash matches model"
(* The list model spans commits and reopens. A collection whose only index
   is a list and a bare list anchor take the same inserts and deletes; both
   must agree with the model in count and in scan (insertion) order. Runs
   grow past one node, so most deletes land in spilled nodes. *)
type list_step = Ins of int | Del of int | Commit | Reopen

let list_steps =
  let open QCheck in
  let step =
    Gen.frequency
      [
        (6, Gen.map (fun k -> Ins k) (Gen.int_range 0 40));
        (3, Gen.map (fun i -> Del i) Gen.nat);
        (1, Gen.return Commit);
        (1, Gen.return Reopen);
      ]
  in
  let show = function
    | Ins k -> Printf.sprintf "ins %d" k
    | Del i -> Printf.sprintf "del %d" i
    | Commit -> "commit"
    | Reopen -> "reopen"
  in
  make ~print:(Print.list show) Gen.(list_size (int_range 0 120) step)

let qcheck_list_model =
  QCheck.Test.make ~name:"list matches model" ~count:20 list_steps (fun steps ->
      let open Tdb_collection in
      let db = mem_db () in
      let ix = Indexer.make ~name:"seq" ~key:Gkey.int ~extract:(fun (b : blob) -> b.v) ~impl:Indexer.List () in
      let os = ref (create_os db) in
      let ct = ref (Cstore.begin_ !os) in
      let c = ref (Cstore.create_collection !ct ~name:"m" ~schema:blob_cls ix) in
      let anchor = Index.create_anchor (Cstore.txn !ct) Indexer.List in
      (* (key, oid) pairs in insertion order *)
      let model = ref [] in
      let ok = ref true in
      let check () =
        let expect = List.map snd !model in
        let it = Cstore.scan !ct !c ix in
        let rec oids acc =
          if Cstore.at_end it then List.rev acc
          else begin
            let o = Cstore.current_oid it in
            Cstore.advance it;
            oids (o :: acc)
          end
        in
        let scanned = oids [] in
        Cstore.close it;
        let x = Cstore.txn !ct in
        if
          Index.count x Indexer.List anchor <> List.length expect
          || Cstore.size !ct !c <> List.length expect
          || Index.scan x list_ops anchor <> expect
          || scanned <> expect
        then ok := false
      in
      let commit () =
        Cstore.commit !ct;
        ct := Cstore.begin_ !os
      in
      let reopen () =
        Cstore.commit !ct;
        Tdb_objstore.Object_store.close !os;
        os := reopen_os db;
        ct := Cstore.begin_ !os;
        c := Cstore.open_collection !ct ~name:"m" ~schema:blob_cls ~indexers:[ Indexer.Generic ix ]
      in
      List.iter
        (function
          | Ins k ->
              let oid = Cstore.insert !ct !c { v = k } in
              Index.insert (Cstore.txn !ct) list_ops anchor ~key:(int_key k) ~oid;
              model := !model @ [ (k, oid) ]
          | Del i -> (
              match !model with
              | [] -> ()
              | m ->
                  let k, oid = List.nth m (i mod List.length m) in
                  Index.delete (Cstore.txn !ct) list_ops anchor ~key:(int_key k) ~oid;
                  let it = Cstore.exact !ct !c ix k in
                  while Cstore.current_oid it <> oid do
                    Cstore.advance it
                  done;
                  Cstore.delete it;
                  Cstore.close it;
                  model := List.filter (fun (_, o) -> o <> oid) m)
          | Commit ->
              commit ();
              check ()
          | Reopen ->
              reopen ();
              check ())
        steps;
      check ();
      reopen ();
      check ();
      Cstore.commit !ct;
      !ok)

(* ------------------------------------------------------------------ *)
(* Config pins                                                         *)
(* ------------------------------------------------------------------ *)

(* Child mode for the pin test: report what [Config.default] resolved to
   in this process's environment. *)
let print_defaults = "--print-defaults"

let () =
  if Array.length Sys.argv = 2 && String.equal Sys.argv.(1) print_defaults then begin
    Printf.printf "domains=%d shards=%d replica_every=%d" Config.default.Config.domains Config.default.Config.shards
      Config.default.Config.replica_interval_commits;
    exit 0
  end

let test_config_pins () =
  let rejects what c =
    Alcotest.(check bool) (what ^ " rejected") true
      (match Config.validate c with () -> false | exception Invalid_argument _ -> true)
  in
  rejects "tiers = 2" { Config.default with Config.tiers = 2 };
  rejects "domains = 4" { Config.default with Config.domains = 4 };
  rejects "shards = 2" { Config.default with Config.shards = 2 };
  Config.validate Config.default;
  (* the environment no longer widens the default *)
  let widened = [ "TDB_DOMAINS=4"; "TDB_SHARDS=4"; "TDB_REPLICA_EVERY=8" ] in
  let env =
    Array.of_list
      (widened
      @ List.filter (fun kv -> not (String.starts_with ~prefix:"TDB_" kv)) (Array.to_list (Unix.environment ())))
  in
  let out, inp, err =
    Unix.open_process_args_full Sys.executable_name [| Sys.executable_name; print_defaults |] env
  in
  let printed = In_channel.input_all out in
  ignore (Unix.close_process_full (out, inp, err));
  Alcotest.(check string) "defaults under TDB_DOMAINS=4 TDB_SHARDS=4 TDB_REPLICA_EVERY=8"
    "domains=1 shards=1 replica_every=0" printed

let () =
  Alcotest.run "tdb_units"
    [
      ( "config", [ Alcotest.test_case "pinned fields" `Quick test_config_pins ] );
      ( "security",
        [
          Alcotest.test_case "seal roundtrip" `Quick test_security_seal_roundtrip;
          Alcotest.test_case "label + mac" `Quick test_security_label_and_mac;
          Alcotest.test_case "disabled transparent" `Quick test_security_disabled_is_transparent;
        ] );
      ( "location-map",
        [
          Alcotest.test_case "set/find/remove" `Quick test_map_set_find_remove;
          Alcotest.test_case "checkpoint + reload" `Quick test_map_checkpoint_and_reload;
          Alcotest.test_case "count dirty" `Quick test_map_count_dirty;
          Alcotest.test_case "diff trees" `Quick test_map_diff_trees;
        ] );
      ( "log",
        [
          Alcotest.test_case "append/scan" `Quick test_log_append_and_scan;
          Alcotest.test_case "segment chaining" `Quick test_log_segment_chaining;
          Alcotest.test_case "usage + barrier" `Quick test_log_usage_and_barrier;
          Alcotest.test_case "clean candidate order" `Quick test_log_clean_candidate_order;
          Alcotest.test_case "pinning" `Quick test_log_pinning;
          Alcotest.test_case "recovery chain stays residual" `Quick test_log_recovery_residual;
          Alcotest.test_case "hold keeps late-emptied segments" `Quick test_log_hold;
        ] );
      ( "anchor",
        [
          Alcotest.test_case "roundtrip + epochs" `Quick test_anchor_roundtrip_and_epoch;
          Alcotest.test_case "seed format identity" `Quick test_anchor_seed_format_identity;
          Alcotest.test_case "wrong key" `Quick test_anchor_wrong_key_rejected;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "pinning" `Quick test_lru_pin_blocks_eviction;
          Alcotest.test_case "touch refreshes" `Quick test_lru_touch_refreshes;
          Alcotest.test_case "valid rejects" `Quick test_lru_valid_rejects;
          Alcotest.test_case "remove" `Quick test_lru_remove;
          Alcotest.test_case "drop_all with a pin" `Quick test_lru_drop_all_pinned;
          Alcotest.test_case "shrink below a pin" `Quick test_lru_shrink_below_pinned;
          Alcotest.test_case "walk parks pinned entries" `Quick test_lru_park_pinned;
          Alcotest.test_case "oversize put kept" `Quick test_lru_oversize_put;
        ] );
      ( "locks",
        [
          Alcotest.test_case "shared/exclusive" `Quick test_locks_shared_compatible;
          Alcotest.test_case "reentrant" `Quick test_locks_reentrant;
        ] );
      ( "indexes",
        [
          Alcotest.test_case "btree ordering" `Quick test_btree_index_ordering;
          Alcotest.test_case "hash growth" `Quick test_hash_index_growth;
          Alcotest.test_case "list order" `Quick test_list_index_order_preserved;
          Alcotest.test_case "list insert leaves the anchor" `Quick test_list_insert_leaves_anchor;
          Alcotest.test_case "list version-1 head" `Quick test_list_version1_head;
          Alcotest.test_case "list inserts under 2PL" `Quick test_list_concurrent_inserts;
        ] );
      ( "baseline-page",
        [
          QCheck_alcotest.to_alcotest qcheck_page_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_pickle_array;
        ] );
      ( "torture",
        [ Alcotest.test_case "threads over collections" `Slow test_concurrent_collection_torture ] );
      ( "index-models",
        List.map QCheck_alcotest.to_alcotest [ qcheck_btree_model; qcheck_hash_model; qcheck_list_model ] );
      ( "tpcb-support",
        [
          Alcotest.test_case "sim disk charges" `Quick test_sim_disk_charges;
          Alcotest.test_case "flat record roundtrip" `Quick test_workload_flat_roundtrip;
          Alcotest.test_case "pickled record size" `Quick test_workload_record_pickled_size;
          Alcotest.test_case "txn gen bounds" `Quick test_workload_txn_gen_in_bounds;
        ] );
    ]
