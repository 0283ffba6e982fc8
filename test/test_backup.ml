(* Backup store tests: full/incremental roundtrips, validated restore,
   sequencing enforcement, tampered-archive rejection. *)

open Tdb_platform
open Tdb_chunk
open Tdb_backup

let cfg =
  { Config.default with Config.segment_size = 4096; initial_segments = 8; checkpoint_every = 64;
    anchor_slot_size = 2048 }

type env = {
  store : Untrusted_store.t;
  secret : Secret_store.t;
  ctr : One_way_counter.t;
  arch_h : Archival_store.Mem.handle;
  archive : Archival_store.t;
}

let fresh_env () =
  let _, store = Untrusted_store.open_mem () in
  let _, ctr = One_way_counter.open_mem () in
  let arch_h, archive = Archival_store.open_mem () in
  { store; secret = Secret_store.of_seed "backup-device"; ctr; arch_h; archive }

let fresh_cs env = Chunk_store.create ~config:cfg ~secret:env.secret ~counter:env.ctr env.store

let fresh_target env =
  let _, store = Untrusted_store.open_mem () in
  let _, ctr = One_way_counter.open_mem () in
  Chunk_store.create ~config:cfg ~secret:env.secret ~counter:ctr store

let dump cs ids = List.filter_map (fun cid -> match Chunk_store.read cs cid with d -> Some (cid, d) | exception Types.Not_written _ -> None) ids

let test_full_roundtrip () =
  let env = fresh_env () in
  let cs = fresh_cs env in
  let bs = Backup_store.create ~secret:env.secret ~archive:env.archive cs in
  let ids = List.init 20 (fun i ->
      let cid = Chunk_store.allocate cs in
      Chunk_store.write cs cid (Printf.sprintf "record-%d" i);
      cid)
  in
  Chunk_store.commit cs;
  let id = Backup_store.backup_full bs in
  Alcotest.(check int) "first backup id" 1 id;
  let target = fresh_target env in
  ignore (Backup_store.restore ~secret:env.secret ~archive:env.archive ~into:target ());
  Alcotest.(check (list (pair int string))) "restored contents" (dump cs ids) (dump target ids)

let test_incremental_roundtrip () =
  let env = fresh_env () in
  let cs = fresh_cs env in
  let bs = Backup_store.create ~secret:env.secret ~archive:env.archive cs in
  let a = Chunk_store.allocate cs and b = Chunk_store.allocate cs and c = Chunk_store.allocate cs in
  Chunk_store.write cs a "a1"; Chunk_store.write cs b "b1"; Chunk_store.write cs c "c1";
  Chunk_store.commit cs;
  ignore (Backup_store.backup_full bs);
  Chunk_store.write cs b "b2";
  Chunk_store.deallocate cs c;
  Chunk_store.commit cs;
  ignore (Backup_store.backup_incremental bs);
  let d = Chunk_store.allocate cs in
  Chunk_store.write cs d "d1";
  Chunk_store.commit cs;
  ignore (Backup_store.backup_incremental bs);
  let target = fresh_target env in
  ignore (Backup_store.restore ~secret:env.secret ~archive:env.archive ~into:target ());
  Alcotest.(check (list (pair int string))) "final state" (dump cs [ a; b; c; d ]) (dump target [ a; b; c; d ]);
  Alcotest.(check bool) "c removed" true
    (match Chunk_store.read target c with exception Types.Not_written _ -> true | _ -> false)

let test_incremental_without_base_is_full () =
  let env = fresh_env () in
  let cs = fresh_cs env in
  let bs = Backup_store.create ~secret:env.secret ~archive:env.archive cs in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "x";
  Chunk_store.commit cs;
  ignore (Backup_store.backup_incremental bs);
  Alcotest.(check bool) "stored as full" true
    (List.exists (fun n -> String.length n >= 4 && String.sub n (String.length n - 4) 4 = "full")
       (Archival_store.list env.archive))

let test_restore_upto () =
  let env = fresh_env () in
  let cs = fresh_cs env in
  let bs = Backup_store.create ~secret:env.secret ~archive:env.archive cs in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "v1";
  Chunk_store.commit cs;
  ignore (Backup_store.backup_full bs);
  Chunk_store.write cs a "v2";
  Chunk_store.commit cs;
  ignore (Backup_store.backup_incremental bs);
  Chunk_store.write cs a "v3";
  Chunk_store.commit cs;
  ignore (Backup_store.backup_incremental bs);
  let t1 = fresh_target env in
  ignore (Backup_store.restore ~secret:env.secret ~archive:env.archive ~upto:2 ~into:t1 ());
  Alcotest.(check string) "point-in-time" "v2" (Chunk_store.read t1 a);
  let t2 = fresh_target env in
  ignore (Backup_store.restore ~secret:env.secret ~archive:env.archive ~into:t2 ());
  Alcotest.(check string) "latest" "v3" (Chunk_store.read t2 a)

let test_missing_incremental_detected () =
  let env = fresh_env () in
  let cs = fresh_cs env in
  let bs = Backup_store.create ~secret:env.secret ~archive:env.archive cs in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "v1"; Chunk_store.commit cs;
  ignore (Backup_store.backup_full bs);
  Chunk_store.write cs a "v2"; Chunk_store.commit cs;
  let id2 = Backup_store.backup_incremental bs in
  Chunk_store.write cs a "v3"; Chunk_store.commit cs;
  ignore (Backup_store.backup_incremental bs);
  (* attacker deletes the middle incremental: restore must not silently
     skip it *)
  Archival_store.delete env.archive ~name:(Printf.sprintf "tdb-%06d-incr" id2);
  let target = fresh_target env in
  Alcotest.(check bool) "gap detected" true
    (match Backup_store.restore ~secret:env.secret ~archive:env.archive ~into:target () with
    | exception Backup_store.Invalid_backup _ -> true
    | _ -> false);
  (* refused from the names alone, before anything was applied *)
  let tbs = Backup_store.create ~secret:env.secret ~archive:env.archive target in
  Alcotest.(check int) "target chain state" 0 (Backup_store.chain_state tbs).Backup_store.last_id;
  Alcotest.(check (list int)) "target live ids" [] (Chunk_store.live_ids target)

let test_tampered_backup_rejected () =
  let env = fresh_env () in
  let cs = fresh_cs env in
  let bs = Backup_store.create ~secret:env.secret ~archive:env.archive cs in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "premium-credits=100";
  Chunk_store.commit cs;
  ignore (Backup_store.backup_full bs);
  (* corrupt one byte in the middle of the stream *)
  let name = List.hd (Archival_store.list env.archive) in
  let len = String.length (Option.get (Archival_store.get env.archive ~name)) in
  Archival_store.Mem.corrupt env.arch_h ~name ~pos:(len / 2) ~mask:0x10;
  let target = fresh_target env in
  Alcotest.(check bool) "rejected" true
    (match Backup_store.restore ~secret:env.secret ~archive:env.archive ~into:target () with
    | exception Backup_store.Invalid_backup _ -> true
    | _ -> false)

(* The archive {F1, I2, F3, I4, I5}, each backup after a write of [a],
   and the archive's [get] calls by name. *)
let chain_with_reads () =
  let env = fresh_env () in
  let cs = fresh_cs env in
  let bs = Backup_store.create ~secret:env.secret ~archive:env.archive cs in
  let a = Chunk_store.allocate cs in
  List.iteri
    (fun i full ->
      Chunk_store.write cs a (Printf.sprintf "v%d" (i + 1));
      Chunk_store.commit cs;
      ignore (if full then Backup_store.backup_full bs else Backup_store.backup_incremental bs))
    [ true; false; true; false; false ];
  let reads = ref [] in
  let counting =
    { env.archive with
      Archival_store.get =
        (fun ~name ->
          reads := name :: !reads;
          Archival_store.get env.archive ~name) }
  in
  (env, a, counting, reads)

let read_ids reads = List.rev_map (fun name -> fst (Option.get (Backup_store.parse_name name))) !reads

(* Restore reads only the chain it applies: the newest full at or below
   the cut and the incrementals after it, each once. *)
let test_restore_reads_only_its_chain () =
  let env, a, archive, reads = chain_with_reads () in
  let t1 = fresh_target env in
  Alcotest.(check int) "newest" 5 (Backup_store.restore ~secret:env.secret ~archive ~into:t1 ());
  Alcotest.(check (list int)) "frames read" [ 3; 4; 5 ] (read_ids reads);
  Alcotest.(check string) "newest state" "v5" (Chunk_store.read t1 a);
  reads := [];
  let t2 = fresh_target env in
  Alcotest.(check int) "point-in-time" 2 (Backup_store.restore ~secret:env.secret ~archive ~upto:2 ~into:t2 ());
  Alcotest.(check (list int)) "frames read, upto 2" [ 1; 2 ] (read_ids reads);
  Alcotest.(check string) "state at 2" "v2" (Chunk_store.read t2 a)

(* A damaged newest frame is refused, not silently rolled back past;
   [upto] still reaches the older point. *)
let test_damaged_newest_refused () =
  let env, a, archive, _ = chain_with_reads () in
  let name = "tdb-000005-incr" in
  let len = String.length (Option.get (Archival_store.get env.archive ~name)) in
  Archival_store.Mem.corrupt env.arch_h ~name ~pos:(len / 2) ~mask:0x10;
  Alcotest.(check bool) "damaged I5 refused" true
    (match Backup_store.restore ~secret:env.secret ~archive ~into:(fresh_target env) () with
    | exception Backup_store.Invalid_backup _ -> true
    | _ -> false);
  let t = fresh_target env in
  Alcotest.(check int) "upto 4" 4 (Backup_store.restore ~secret:env.secret ~archive ~upto:4 ~into:t ());
  Alcotest.(check string) "state at 4" "v4" (Chunk_store.read t a)

(* Frame IVs must not repeat across attaches: each attach used to reseed
   the IV generator from the secret, so a second attach replayed the first
   attach's IV stream under the same CBC key. *)
let test_frame_ivs_distinct_across_attaches () =
  let env = fresh_env () in
  let cs = fresh_cs env in
  let attach () = Backup_store.create ~secret:env.secret ~archive:env.archive cs in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "a1";
  Chunk_store.commit cs;
  ignore (Backup_store.backup_full (attach ()));
  Chunk_store.write cs a "a2";
  Chunk_store.commit cs;
  ignore (Backup_store.backup_incremental (attach ()));
  (* frame := magic ^ string header ^ string (IV ^ ciphertext) ^ ... *)
  let iv_of name =
    let stream = Option.get (Archival_store.get env.archive ~name) in
    let r = Tdb_pickle.Pickle.reader ~off:4 stream in
    ignore (Tdb_pickle.Pickle.read_string r);
    String.sub (Tdb_pickle.Pickle.read_string r) 0 16
  in
  let ivs = List.map iv_of (Archival_store.list env.archive) in
  Alcotest.(check int) "two frames" 2 (List.length ivs);
  Alcotest.(check int) "no IV repeats" 2 (List.length (List.sort_uniq String.compare ivs))

let test_backup_encrypted () =
  let env = fresh_env () in
  let cs = fresh_cs env in
  let bs = Backup_store.create ~secret:env.secret ~archive:env.archive cs in
  let a = Chunk_store.allocate cs in
  let secret_data = "SECRET-LICENSE-KEY-42" in
  Chunk_store.write cs a secret_data;
  Chunk_store.commit cs;
  ignore (Backup_store.backup_full bs);
  let name = List.hd (Archival_store.list env.archive) in
  let stream = Option.get (Archival_store.get env.archive ~name) in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no plaintext in archive" false (contains stream secret_data)

let test_wrong_device_cannot_restore () =
  let env = fresh_env () in
  let cs = fresh_cs env in
  let bs = Backup_store.create ~secret:env.secret ~archive:env.archive cs in
  let a = Chunk_store.allocate cs in
  Chunk_store.write cs a "x";
  Chunk_store.commit cs;
  ignore (Backup_store.backup_full bs);
  let other = Secret_store.of_seed "attacker-device" in
  let _, store = Untrusted_store.open_mem () in
  let _, ctr = One_way_counter.open_mem () in
  let target = Chunk_store.create ~config:cfg ~secret:other ~counter:ctr store in
  Alcotest.(check bool) "foreign secret fails" true
    (match Backup_store.restore ~secret:other ~archive:env.archive ~into:target () with
    | exception Backup_store.Invalid_backup _ -> true
    | _ -> false)

let test_restore_preserves_ids_across_reopen () =
  let env = fresh_env () in
  let cs = fresh_cs env in
  let bs = Backup_store.create ~secret:env.secret ~archive:env.archive cs in
  let ids = List.init 10 (fun i ->
      let cid = Chunk_store.allocate cs in
      Chunk_store.write cs cid (string_of_int i);
      cid)
  in
  Chunk_store.commit cs;
  ignore (Backup_store.backup_full bs);
  let _, store2 = Untrusted_store.open_mem () in
  let _, ctr2 = One_way_counter.open_mem () in
  let target = Chunk_store.create ~config:cfg ~secret:env.secret ~counter:ctr2 store2 in
  ignore (Backup_store.restore ~secret:env.secret ~archive:env.archive ~into:target ());
  (* new allocations in the restored database must not collide *)
  let fresh = Chunk_store.allocate target in
  Alcotest.(check bool) "no id collision" true (not (List.mem fresh ids));
  List.iteri (fun i cid -> Alcotest.(check string) "id preserved" (string_of_int i) (Chunk_store.read target cid)) ids

let test_many_incrementals_qcheck =
  QCheck.Test.make ~name:"random backup/restore equivalence" ~count:10
    QCheck.(list_of_size Gen.(1 -- 6) (small_list (pair (int_range 0 10) (string_of_size Gen.(0 -- 50)))))
    (fun epochs ->
      let env = fresh_env () in
      let cs = fresh_cs env in
      let bs = Backup_store.create ~secret:env.secret ~archive:env.archive cs in
      let key_to_cid = Hashtbl.create 16 in
      List.iteri
        (fun i batch ->
          List.iter
            (fun (k, v) ->
              let cid =
                match Hashtbl.find_opt key_to_cid k with
                | Some c -> c
                | None ->
                    let c = Chunk_store.allocate cs in
                    Hashtbl.replace key_to_cid k c;
                    c
              in
              Chunk_store.write cs cid v)
            batch;
          Chunk_store.commit cs;
          if i = 0 then ignore (Backup_store.backup_full bs) else ignore (Backup_store.backup_incremental bs))
        epochs;
      let target = fresh_target env in
      ignore (Backup_store.restore ~secret:env.secret ~archive:env.archive ~into:target ());
      Hashtbl.fold
        (fun _ cid ok -> ok && Chunk_store.read cs cid = Chunk_store.read target cid)
        key_to_cid true)

(* A database restored in place from its own archive carries the chain
   state of the last backup applied, so its next backup extends the
   archive (a full one, at the next id) instead of overwriting the
   streams it was restored from. *)
type note = { day : int }

let note_cls : note Tdb.Obj_class.t =
  Tdb.Obj_class.define ~name:"backup-test.note"
    ~pickle:(fun w n -> Tdb.Pickle.int w n.day)
    ~unpickle:(fun ~version:_ r -> { day = Tdb.Pickle.read_int r })
    ()

let by_day = Tdb.Indexer.make ~name:"day" ~key:Tdb.Gkey.int ~extract:(fun n -> n.day) ~unique:true ()

let notes ct = Tdb.Cstore.open_collection ct ~name:"notes" ~schema:note_cls ~indexers:[ Tdb.Indexer.Generic by_day ]
let add_note db day = Tdb.with_ctxn db (fun ct -> ignore (Tdb.Cstore.insert ct (notes ct) { day }))

let days db =
  Tdb.with_ctxn db (fun ct ->
      let it = Tdb.Cstore.scan ct (notes ct) by_day in
      let acc = ref [] in
      while not (Tdb.Cstore.at_end it) do
        acc := (Tdb.Cstore.read it).day :: !acc;
        Tdb.Cstore.advance it
      done;
      Tdb.Cstore.close it;
      List.rev !acc)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_restored_store_extends_archive () =
  let dir = Filename.temp_dir "tdb-backup-test" "" in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let db = Tdb.create (Tdb.Device.at_dir dir) in
      Tdb.with_ctxn db (fun ct -> ignore (Tdb.Cstore.create_collection ct ~name:"notes" ~schema:note_cls by_day));
      add_note db 1;
      ignore (Tdb.backup_full db);
      add_note db 2;
      ignore (Tdb.backup_incremental db);
      add_note db 3;
      ignore (Tdb.backup_incremental db);
      Tdb.close db;
      let dev = Tdb.Device.at_dir dir in
      let db = Tdb.restore ~from:dev dev in
      add_note db 4;
      let id = Tdb.backup_incremental db in
      Tdb.close db;
      Alcotest.(check int) "next backup extends the archive" 4 id;
      let dev = Tdb.Device.at_dir dir in
      let db = Tdb.restore ~upto:id ~from:dev dev in
      Alcotest.(check (list int)) "restore at the newest id holds the new row" [ 1; 2; 3; 4 ] (days db);
      Tdb.close db)

let () =
  Alcotest.run "tdb_backup"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "full" `Quick test_full_roundtrip;
          Alcotest.test_case "incremental" `Quick test_incremental_roundtrip;
          Alcotest.test_case "incremental w/o base" `Quick test_incremental_without_base_is_full;
          Alcotest.test_case "point-in-time" `Quick test_restore_upto;
          Alcotest.test_case "ids preserved" `Quick test_restore_preserves_ids_across_reopen;
          Alcotest.test_case "restored store extends its archive" `Quick test_restored_store_extends_archive;
        ] );
      ( "validation",
        [
          Alcotest.test_case "missing incremental" `Quick test_missing_incremental_detected;
          Alcotest.test_case "tampered stream" `Quick test_tampered_backup_rejected;
          Alcotest.test_case "damaged newest frame refused" `Quick test_damaged_newest_refused;
          Alcotest.test_case "restore reads only its chain" `Quick test_restore_reads_only_its_chain;
          Alcotest.test_case "encrypted at rest" `Quick test_backup_encrypted;
          Alcotest.test_case "frame IVs distinct across attaches" `Quick test_frame_ivs_distinct_across_attaches;
          Alcotest.test_case "device binding" `Quick test_wrong_device_cannot_restore;
        ] );
      ("qcheck", [ QCheck_alcotest.to_alcotest test_many_incrementals_qcheck ]);
    ]
