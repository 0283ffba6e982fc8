(* Platform substrate tests: untrusted store semantics (including crash and
   tamper injection), one-way counter monotonicity and torn-write safety,
   secret store derivation, archival store. *)

open Tdb_platform

let with_tmpdir f =
  let dir = Filename.temp_file "tdbtest" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))) (fun () -> f dir)

(* --- untrusted store (mem) --- *)

let test_mem_rw () =
  let _h, s = Untrusted_store.open_mem () in
  Untrusted_store.write s ~off:0 "hello";
  Untrusted_store.write s ~off:5 " world";
  Alcotest.(check string) "read" "hello world" (Bytes.to_string (Untrusted_store.read s ~off:0 ~len:11));
  Alcotest.(check int) "size" 11 (Untrusted_store.size s);
  Untrusted_store.write s ~off:100 "far";
  Alcotest.(check int) "sparse grows" 103 (Untrusted_store.size s);
  (* hole reads as zeros *)
  Alcotest.(check string) "hole" (String.make 3 '\000') (Bytes.to_string (Untrusted_store.read s ~off:50 ~len:3))

let test_mem_bounds () =
  let _h, s = Untrusted_store.open_mem () in
  Untrusted_store.write s ~off:0 "abc";
  Alcotest.(check bool) "oob read raises" true
    (match Untrusted_store.read s ~off:0 ~len:4 with exception Invalid_argument _ -> true | _ -> false)

let test_mem_crash_loses_unsynced () =
  let h, s = Untrusted_store.open_mem () in
  Untrusted_store.write s ~off:0 "stable!!";
  Untrusted_store.sync s;
  Untrusted_store.write s ~off:0 "volatile";
  Untrusted_store.Mem.crash_hard h;
  Alcotest.(check string) "reverted" "stable!!" (Bytes.to_string (Untrusted_store.read s ~off:0 ~len:8))

let test_mem_crash_partial_persistence () =
  (* with persist_prob 1.0 every unsynced write survives *)
  let h, s = Untrusted_store.open_mem () in
  Untrusted_store.write s ~off:0 "aaaa";
  Untrusted_store.sync s;
  Untrusted_store.write s ~off:0 "bbbb";
  Untrusted_store.Mem.crash ~persist_prob:1.0 ~rng:(fun _ -> 0) h;
  Alcotest.(check string) "all survive" "bbbb" (Bytes.to_string (Untrusted_store.read s ~off:0 ~len:4))

let test_mem_tamper_and_snapshot () =
  let h, s = Untrusted_store.open_mem () in
  Untrusted_store.write s ~off:0 "sensitive-data";
  Untrusted_store.sync s;
  let img = Untrusted_store.Mem.snapshot h in
  Untrusted_store.Mem.corrupt h ~off:0 ~len:1 ~mask:0xff;
  Alcotest.(check bool) "corrupted" true (Bytes.to_string (Untrusted_store.read s ~off:0 ~len:14) <> "sensitive-data");
  Untrusted_store.Mem.restore h img;
  Alcotest.(check string) "replayed" "sensitive-data" (Bytes.to_string (Untrusted_store.read s ~off:0 ~len:14))

let test_mem_stats () =
  let _h, s = Untrusted_store.open_mem () in
  Untrusted_store.write s ~off:0 "12345";
  ignore (Untrusted_store.read s ~off:0 ~len:2);
  Untrusted_store.sync s;
  let st = Untrusted_store.stats s in
  Alcotest.(check int) "writes" 1 st.Untrusted_store.writes;
  Alcotest.(check int) "bytes written" 5 st.Untrusted_store.bytes_written;
  Alcotest.(check int) "bytes read" 2 st.Untrusted_store.bytes_read;
  Alcotest.(check int) "syncs" 1 st.Untrusted_store.syncs

(* --- vectored writes --- *)

let test_mem_writev () =
  let _h, s = Untrusted_store.open_mem () in
  Untrusted_store.writev s ~off:0 [ "head"; ""; "-"; "tail" ];
  Alcotest.(check string) "concatenated" "head-tail" (Bytes.to_string (Untrusted_store.read s ~off:0 ~len:9));
  let st = Untrusted_store.stats s in
  Alcotest.(check int) "one write call" 1 st.Untrusted_store.writes;
  Alcotest.(check int) "three fragments (empties skipped)" 3 st.Untrusted_store.fragments;
  Alcotest.(check int) "bytes" 9 st.Untrusted_store.bytes_written;
  (* hole-extension: a writev past the end grows the store, hole zeroed *)
  Untrusted_store.writev s ~off:20 [ "far"; "away" ];
  Alcotest.(check int) "sparse grows" 27 (Untrusted_store.size s);
  Alcotest.(check string) "hole zeros" (String.make 5 '\000')
    (Bytes.to_string (Untrusted_store.read s ~off:10 ~len:5));
  Alcotest.(check string) "far data" "faraway" (Bytes.to_string (Untrusted_store.read s ~off:20 ~len:7));
  (* empty fragment list: no-op, no stats *)
  let w = (Untrusted_store.stats s).Untrusted_store.writes in
  Untrusted_store.writev s ~off:1000 [];
  Untrusted_store.writev s ~off:1000 [ ""; "" ];
  Alcotest.(check int) "empty writev is a no-op" w (Untrusted_store.stats s).Untrusted_store.writes;
  Alcotest.(check int) "size unchanged" 27 (Untrusted_store.size s)

let test_mem_writev_crash_fragment_suffix () =
  (* a crash may lose an arbitrary fragment suffix of an unsynced writev:
     each fragment is a separate pending entry, so with an rng keeping the
     first k draws, exactly the first k fragments survive *)
  let n_frags = 4 in
  let frags = List.init n_frags (fun i -> String.make 4 (Char.chr (Char.code 'a' + i))) in
  for k = 0 to n_frags do
    let h, s = Untrusted_store.open_mem () in
    Untrusted_store.write s ~off:0 (String.make (4 * n_frags) '.');
    Untrusted_store.sync s;
    Untrusted_store.writev s ~off:0 frags;
    let drawn = ref 0 in
    Untrusted_store.Mem.crash ~persist_prob:0.5
      ~rng:(fun _ ->
        incr drawn;
        if !drawn <= k then 0 else 999)
      h;
    let expect =
      String.concat ""
        (List.mapi (fun i f -> if i < k then f else String.make 4 '.') frags)
    in
    Alcotest.(check string)
      (Printf.sprintf "first %d fragments survive" k)
      expect
      (Bytes.to_string (Untrusted_store.read s ~off:0 ~len:(4 * n_frags)))
  done

let test_writev_interpose_boundaries () =
  (* interpose decomposes a writev into per-fragment boundaries, skipping
     empty fragments, with prior fragments applied individually *)
  let _h, raw = Untrusted_store.open_mem () in
  let seen = ref [] in
  let s =
    Untrusted_store.interpose raw ~before:(fun op ->
        match op with
        | Untrusted_store.Op_write { off; data } -> seen := (off, data) :: !seen
        | _ -> ())
  in
  Untrusted_store.writev s ~off:10 [ "aa"; ""; "bbb"; "c" ];
  Alcotest.(check (list (pair int string)))
    "per-fragment boundaries, empties skipped"
    [ (10, "aa"); (12, "bbb"); (15, "c") ]
    (List.rev !seen);
  Alcotest.(check string) "all fragments applied" "aabbbc"
    (Bytes.to_string (Untrusted_store.read raw ~off:10 ~len:6));
  (* a hook that raises at fragment k leaves exactly k fragments applied *)
  let count = ref 0 in
  let s2 =
    Untrusted_store.interpose raw ~before:(fun op ->
        match op with
        | Untrusted_store.Op_write _ ->
            incr count;
            if !count > 2 then failwith "crash"
        | _ -> ())
  in
  (match Untrusted_store.writev s2 ~off:100 [ "11"; "22"; "33"; "44" ] with
  | () -> Alcotest.fail "hook did not crash"
  | exception Failure _ -> ());
  Alcotest.(check string) "prefix fragments applied" "1122"
    (Bytes.to_string (Untrusted_store.read raw ~off:100 ~len:4));
  Alcotest.(check int) "suffix never written" 104 (Untrusted_store.size raw)

let test_file_writev () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "db" in
      let s = Untrusted_store.open_file path in
      Untrusted_store.write s ~off:0 "0123456789";
      Untrusted_store.writev s ~off:4 [ "AB"; ""; "CD" ];
      let st = Untrusted_store.stats s in
      Alcotest.(check int) "two write calls" 2 st.Untrusted_store.writes;
      Alcotest.(check int) "fragments" 3 st.Untrusted_store.fragments;
      Untrusted_store.sync s;
      Untrusted_store.close s;
      let s2 = Untrusted_store.open_file path in
      Alcotest.(check string) "reopen sees coalesced write" "0123ABCD89"
        (Bytes.to_string (Untrusted_store.read s2 ~off:0 ~len:10));
      (* extension via writev *)
      Untrusted_store.writev s2 ~off:10 [ "xx"; "yy" ];
      Alcotest.(check int) "extends" 14 (Untrusted_store.size s2);
      Alcotest.(check string) "tail" "xxyy" (Bytes.to_string (Untrusted_store.read s2 ~off:10 ~len:4));
      Untrusted_store.close s2)

(* --- untrusted store (file) --- *)

let test_file_store () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "db" in
      let s = Untrusted_store.open_file path in
      Untrusted_store.write s ~off:0 "persist me";
      Untrusted_store.sync s;
      Untrusted_store.close s;
      let s2 = Untrusted_store.open_file path in
      Alcotest.(check string) "reopen" "persist me" (Bytes.to_string (Untrusted_store.read s2 ~off:0 ~len:10));
      Untrusted_store.set_size s2 4;
      Alcotest.(check int) "truncate" 4 (Untrusted_store.size s2);
      Untrusted_store.set_size s2 8;
      Alcotest.(check string) "extend zeros" "pers\000\000\000\000"
        (Bytes.to_string (Untrusted_store.read s2 ~off:0 ~len:8));
      Untrusted_store.close s2)

let test_file_set_size () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "db" in
      let s = Untrusted_store.open_file path in
      Untrusted_store.write s ~off:0 "0123456789";
      Untrusted_store.set_size s 10;
      Alcotest.(check int) "same size kept" 10 (Untrusted_store.size s);
      Alcotest.(check string) "same size keeps contents" "0123456789"
        (Bytes.to_string (Untrusted_store.read s ~off:0 ~len:10));
      Untrusted_store.set_size s 4;
      Untrusted_store.close s;
      let s2 = Untrusted_store.open_file path in
      Alcotest.(check int) "smaller size truncates the file" 4 (Untrusted_store.size s2);
      Alcotest.(check string) "prefix kept" "0123" (Bytes.to_string (Untrusted_store.read s2 ~off:0 ~len:4));
      Untrusted_store.close s2)

(* --- one-way counter --- *)

let test_counter_mem () =
  let _h, c = One_way_counter.open_mem () in
  Alcotest.(check int64) "initial" 0L (One_way_counter.read c);
  Alcotest.(check int64) "inc" 1L (One_way_counter.increment c);
  Alcotest.(check int64) "inc" 2L (One_way_counter.increment c);
  Alcotest.(check int64) "read" 2L (One_way_counter.read c)

let test_counter_file_persistence () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "ctr" in
      let c = One_way_counter.open_file path in
      for _ = 1 to 5 do
        ignore (One_way_counter.increment c)
      done;
      let c2 = One_way_counter.open_file path in
      Alcotest.(check int64) "survives reopen" 5L (One_way_counter.read c2))

(* A bump reads the two slots once: that read gives both the current
   value and the slot to overwrite. *)
let test_counter_increment_reads_once () =
  let _, store = Untrusted_store.open_mem () in
  let c = One_way_counter.open_store store in
  ignore (One_way_counter.increment c);
  let st = Untrusted_store.stats store in
  let r0 = st.Untrusted_store.reads in
  Alcotest.(check int64) "value" 2L (One_way_counter.increment c);
  Alcotest.(check int) "one store read per increment" 1 (st.Untrusted_store.reads - r0);
  Alcotest.(check int64) "read back" 2L (One_way_counter.read c)

(* An increment re-checks a slot whose bytes changed since it last read or
   wrote them, even the slot it wrote itself: a valid higher value written
   between two increments is the new maximum, and garbage is ignored. A
   fresh opener, which has seen no bytes before, reads the same value. *)
let test_counter_slot_overwritten () =
  let _, store = Untrusted_store.open_mem () in
  let c = One_way_counter.open_store store in
  let slot_len = Untrusted_store.size store / 2 in
  let encode v =
    let sum = String.sub (Tdb_crypto.Sha256.digest (Printf.sprintf "owc:%Ld" v)) 0 8 in
    Printf.sprintf "%020Ld:%s" v (Tdb_crypto.Hex.of_string sum)
  in
  Alcotest.(check int) "slot layout" slot_len (String.length (encode 0L));
  let overwrite i s = Untrusted_store.write store ~off:(i * slot_len) s in
  let fresh () = One_way_counter.read (One_way_counter.open_store store) in
  ignore (One_way_counter.increment c);
  Alcotest.(check int64) "slot 0 written last" 2L (One_way_counter.increment c);
  overwrite 0 (encode 10L);
  Alcotest.(check int64) "valid higher value in the slot just written" 11L (One_way_counter.increment c);
  overwrite 0 (encode 20L);
  Alcotest.(check int64) "valid higher value in the other slot" 21L (One_way_counter.increment c);
  Alcotest.(check int64) "fresh opener agrees" 21L (fresh ());
  (* slot 1 holds 21, slot 0 holds 20 *)
  overwrite 0 (String.make slot_len 'X');
  Alcotest.(check int64) "garbage in the other slot ignored" 22L (One_way_counter.increment c);
  (* slot 0 holds 22, written last; garbage there leaves slot 1's 21 *)
  overwrite 0 (String.make slot_len 'Y');
  Alcotest.(check int64) "garbage in the slot just written ignored" 21L (One_way_counter.read c);
  Alcotest.(check int64) "fresh opener agrees" 21L (fresh ());
  Alcotest.(check int64) "next increment" 22L (One_way_counter.increment c)

(* Open initializes a store that holds at most one slot's bytes (a torn
   first initialization: slot 0 is synced before slot 1 is written), reads
   a valid slot 0 when slot 1 is incomplete, and refuses, writing nothing,
   a store past one slot where no slot decodes: zeroing it would roll the
   counter back. *)
let test_counter_garbled_refused () =
  let slot_len = String.length (Printf.sprintf "%020Ld:%s" 0L (String.make 16 '0')) in
  let store_of image =
    let _, store = Untrusted_store.open_mem () in
    Untrusted_store.write store ~off:0 image;
    Untrusted_store.sync store;
    store
  in
  let image store = Bytes.to_string (Untrusted_store.read store ~off:0 ~len:(Untrusted_store.size store)) in
  List.iter
    (fun len ->
      let garbage = String.init len (fun i -> Char.chr (33 + (i * 7 mod 90))) in
      let store = store_of garbage in
      let writes = (Untrusted_store.stats store).Untrusted_store.writes in
      (match One_way_counter.open_store store with
      | _ -> Alcotest.failf "%d garbage bytes: opened" len
      | exception One_way_counter.Unreadable _ -> ());
      Alcotest.(check int) (Printf.sprintf "%d garbage bytes: no write" len) writes
        (Untrusted_store.stats store).Untrusted_store.writes;
      Alcotest.(check string) (Printf.sprintf "%d garbage bytes: image unchanged" len) garbage (image store))
    [ slot_len + 1; 70; 2 * slot_len; 3 * slot_len ];
  List.iter
    (fun len ->
      let store = store_of (String.make len 'G') in
      Alcotest.(check int64) (Printf.sprintf "torn first initialization (%d bytes): 0" len) 0L
        (One_way_counter.read (One_way_counter.open_store store));
      Alcotest.(check int) "both slots written" (2 * slot_len) (Untrusted_store.size store))
    [ 1; slot_len / 2; slot_len ];
  (* two increments leave 2 in slot 0 (and 1 in slot 1); keep slot 0 and
     half of slot 1 *)
  let _, two = Untrusted_store.open_mem () in
  let c = One_way_counter.open_store two in
  ignore (One_way_counter.increment c);
  ignore (One_way_counter.increment c);
  let store = store_of (String.sub (image two) 0 (slot_len + (slot_len / 2))) in
  let c = One_way_counter.open_store store in
  Alcotest.(check int64) "valid slot 0, slot 1 incomplete" 2L (One_way_counter.read c);
  Alcotest.(check int64) "next increment" 3L (One_way_counter.increment c)

let test_counter_file_torn_write () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "ctr" in
      let c = One_way_counter.open_file path in
      ignore (One_way_counter.increment c);
      ignore (One_way_counter.increment c);
      (* corrupt the slot that would be written next (slot 0 holds an older
         value now); counter must still report the max valid slot *)
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let slot_len = String.length contents / 2 in
      let broken = String.make slot_len 'X' ^ String.sub contents slot_len slot_len in
      let oc = open_out_gen [ Open_wronly; Open_binary ] 0o600 path in
      output_string oc broken;
      close_out oc;
      let c2 = One_way_counter.open_file path in
      Alcotest.(check bool) "still >= 1" true (One_way_counter.read c2 >= 1L))

let test_counter_monotonic_qcheck =
  QCheck.Test.make ~name:"counter strictly monotonic" ~count:50
    QCheck.(int_range 1 100)
    (fun n ->
      let _h, c = One_way_counter.open_mem () in
      let vals = List.init n (fun _ -> One_way_counter.increment c) in
      let rec increasing = function a :: (b :: _ as r) -> a < b && increasing r | _ -> true in
      increasing vals)

(* --- secret store --- *)

let test_secret_derivation () =
  let s = Secret_store.of_seed "device-42" in
  let k1 = Secret_store.derive s "chunk-encryption" in
  let k2 = Secret_store.derive s "anchor-mac" in
  Alcotest.(check int) "32 bytes" 32 (String.length k1);
  Alcotest.(check bool) "purpose-bound" true (k1 <> k2);
  let s' = Secret_store.of_seed "device-42" in
  Alcotest.(check bool) "deterministic" true (Secret_store.derive s' "chunk-encryption" = k1);
  let s2 = Secret_store.of_seed "device-43" in
  Alcotest.(check bool) "device-bound" true (Secret_store.derive s2 "chunk-encryption" <> k1);
  Alcotest.(check int) "derive_len" 48 (String.length (Secret_store.derive_len s "cipher" 48))

let test_secret_file () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "rom" in
      let s = Secret_store.create_file path in
      let s2 = Secret_store.of_file path in
      Alcotest.(check bool) "stable across opens" true
        (Secret_store.derive s "x" = Secret_store.derive s2 "x"))

(* A key file of any other length is refused with the typed error, and a
   missing one is refused, not created. *)
let test_secret_bad_file () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "rom" in
      let refused () = match Secret_store.of_file path with _ -> false | exception Secret_store.Bad_key_file _ -> true in
      List.iter
        (fun n ->
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (String.make n 'k'));
          Alcotest.(check bool) (Printf.sprintf "%d-byte key refused" n) true (refused ()))
        [ 0; 31; 40 ];
      Sys.remove path;
      Alcotest.(check bool) "missing key refused" true (refused ());
      Alcotest.(check bool) "missing key not created" false (Sys.file_exists path))

(* Opening a database directory creates nothing: one with no secret is
   refused and still has none, one with a short secret is refused. *)
let test_secret_dir_open () =
  with_tmpdir (fun root ->
      let dir = Filename.concat root "db" in
      Tdb.init_dir dir;
      let secret = Filename.concat dir "secret" in
      let key = In_channel.with_open_bin secret In_channel.input_all in
      let open_dir () = Tdb.Device.attempt (fun () -> Tdb.Device.open_dir dir) in
      Sys.remove secret;
      Alcotest.(check bool) "no secret refused" true
        (match open_dir () with Error (Tdb.Device.Missing_file p) -> String.equal p secret | _ -> false);
      Alcotest.(check bool) "no secret left behind" false (Sys.file_exists secret);
      Out_channel.with_open_bin secret (fun oc -> Out_channel.output_string oc (String.sub key 0 31));
      Alcotest.(check bool) "short secret refused" true
        (match open_dir () with Error (Tdb.Device.Bad_secret _) -> true | _ -> false);
      Out_channel.with_open_bin secret (fun oc -> Out_channel.output_string oc key);
      Alcotest.(check bool) "restored secret opens" true (Result.is_ok (open_dir ())))

let test_secret_zeroize () =
  let s = Secret_store.of_seed "z" in
  let z = Secret_store.zeroize s in
  Alcotest.(check bool) "keys gone" true (Secret_store.derive z "x" <> Secret_store.derive s "x")

(* --- archival store --- *)

let test_archive_mem () =
  let h, a = Archival_store.open_mem () in
  Archival_store.put a ~name:"full-1" "data1";
  Archival_store.put a ~name:"incr-2" "data2";
  Alcotest.(check (list string)) "list" [ "full-1"; "incr-2" ] (Archival_store.list a);
  Alcotest.(check (option string)) "get" (Some "data1") (Archival_store.get a ~name:"full-1");
  Archival_store.Mem.corrupt h ~name:"full-1" ~pos:0 ~mask:1;
  Alcotest.(check bool) "corrupted" true (Archival_store.get a ~name:"full-1" <> Some "data1");
  Archival_store.delete a ~name:"full-1";
  Alcotest.(check (option string)) "deleted" None (Archival_store.get a ~name:"full-1")

let test_archive_dir () =
  with_tmpdir (fun dir ->
      let a = Archival_store.open_dir (Filename.concat dir "arch") in
      Alcotest.(check (list string)) "lists empty before the first put" [] (Archival_store.list a);
      Alcotest.(check bool) "opening made no directory" false (Sys.file_exists (Filename.concat dir "arch"));
      Archival_store.put a ~name:"b1" "payload";
      Alcotest.(check (option string)) "roundtrip" (Some "payload") (Archival_store.get a ~name:"b1");
      Alcotest.(check (option string)) "missing" None (Archival_store.get a ~name:"nope");
      Alcotest.(check bool) "bad name rejected" true
        (match Archival_store.put a ~name:"../evil" "x" with exception Invalid_argument _ -> true | _ -> false))

let () =
  Alcotest.run "tdb_platform"
    [
      ( "untrusted-mem",
        [
          Alcotest.test_case "read/write" `Quick test_mem_rw;
          Alcotest.test_case "bounds" `Quick test_mem_bounds;
          Alcotest.test_case "crash loses unsynced" `Quick test_mem_crash_loses_unsynced;
          Alcotest.test_case "crash partial persistence" `Quick test_mem_crash_partial_persistence;
          Alcotest.test_case "tamper + replay" `Quick test_mem_tamper_and_snapshot;
          Alcotest.test_case "stats" `Quick test_mem_stats;
          Alcotest.test_case "writev" `Quick test_mem_writev;
          Alcotest.test_case "writev crash loses fragment suffix" `Quick test_mem_writev_crash_fragment_suffix;
          Alcotest.test_case "writev interpose boundaries" `Quick test_writev_interpose_boundaries;
        ] );
      ( "untrusted-file",
        [
          Alcotest.test_case "file roundtrip" `Quick test_file_store;
          Alcotest.test_case "file writev" `Quick test_file_writev;
          Alcotest.test_case "file set_size" `Quick test_file_set_size;
        ] );
      ( "one-way-counter",
        [
          Alcotest.test_case "mem" `Quick test_counter_mem;
          Alcotest.test_case "file persistence" `Quick test_counter_file_persistence;
          Alcotest.test_case "increment reads once" `Quick test_counter_increment_reads_once;
          Alcotest.test_case "torn write" `Quick test_counter_file_torn_write;
          Alcotest.test_case "garbled counter refused" `Quick test_counter_garbled_refused;
          Alcotest.test_case "slot overwritten between increments" `Quick test_counter_slot_overwritten;
          QCheck_alcotest.to_alcotest test_counter_monotonic_qcheck;
        ] );
      ( "secret-store",
        [
          Alcotest.test_case "derivation" `Quick test_secret_derivation;
          Alcotest.test_case "file" `Quick test_secret_file;
          Alcotest.test_case "bad file" `Quick test_secret_bad_file;
          Alcotest.test_case "directory open" `Quick test_secret_dir_open;
          Alcotest.test_case "zeroize" `Quick test_secret_zeroize;
        ] );
      ( "archival-store",
        [
          Alcotest.test_case "mem" `Quick test_archive_mem;
          Alcotest.test_case "dir" `Quick test_archive_dir;
        ] );
    ]
