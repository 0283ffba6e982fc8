(* Backups: full + incremental, validated restore, point-in-time recovery
   (paper Section 2 / the backup-store design of [23]).

   Run with: dune exec examples/backup_restore.exe *)

type note = { day : int; mutable text : string }

let note_cls : note Tdb.Obj_class.t =
  let module P = Tdb.Pickle in
  Tdb.Obj_class.define ~name:"bk.note"
    ~pickle:(fun w n -> P.int w n.day; P.string w n.text)
    ~unpickle:(fun ~version:_ r ->
      let day = P.read_int r in
      let text = P.read_string r in
      { day; text })
    ()

let by_day = Tdb.Indexer.make ~name:"day" ~key:Tdb.Gkey.int ~extract:(fun n -> n.day) ~unique:true ()

let add_note db day text =
  Tdb.with_ctxn db (fun ct ->
      let notes = Tdb.Cstore.open_collection ct ~name:"notes" ~schema:note_cls ~indexers:[ Tdb.Indexer.Generic by_day ] in
      ignore (Tdb.Cstore.insert ct notes { day; text }))

let dump db label =
  Tdb.with_ctxn db (fun ct ->
      let notes = Tdb.Cstore.open_collection ct ~name:"notes" ~schema:note_cls ~indexers:[ Tdb.Indexer.Generic by_day ] in
      Printf.printf "%s:\n" label;
      let it = Tdb.Cstore.scan ct notes by_day in
      while not (Tdb.Cstore.at_end it) do
        let n = Tdb.Cstore.read it in
        Printf.printf "  day %d: %s\n" n.day n.text;
        Tdb.Cstore.advance it
      done;
      Tdb.Cstore.close it)

let () =
  let _attacker, device = Tdb.Device.in_memory ~seed:"backup-example" () in
  let db = Tdb.create device in
  Tdb.with_ctxn db (fun ct ->
      ignore (Tdb.Cstore.create_collection ct ~name:"notes" ~schema:note_cls by_day));

  (* day 1: write data, take a full backup *)
  add_note db 1 "bought blockbuster.mp4";
  let b1 = Tdb.backup_full db in
  Printf.printf "day 1: full backup #%d (snapshot-based, foreground work keeps running)\n" b1;

  (* days 2..3: small changes, cheap incrementals (Merkle-pruned diffs) *)
  add_note db 2 "played hit-single.mp3 x3";
  let b2 = Tdb.backup_incremental db in
  add_note db 3 "renewed subscription";
  let b3 = Tdb.backup_incremental db in
  Printf.printf "days 2-3: incremental backups #%d and #%d\n" b2 b3;

  (* the archival store shows the streams *)
  List.iter
    (fun name ->
      let size = String.length (Option.get (Tdb.Archival_store.get device.Tdb.Device.archive ~name)) in
      Printf.printf "  archive %-16s %6d bytes\n" name size)
    (Tdb.Archival_store.list device.Tdb.Device.archive);
  Tdb.close db;

  (* the device dies; restore onto a replacement (same secret store) *)
  let _, fresh_store = Tdb.Untrusted_store.open_mem () in
  let _, fresh_counter = Tdb.One_way_counter.open_mem () in
  let replacement =
    { device with Tdb.Device.store = fresh_store; counter = fresh_counter }
  in
  let db2 = Tdb.restore ~from:device.Tdb.Device.archive replacement in
  dump db2 "restored (latest)";
  Tdb.close db2;

  (* point-in-time: restore only up to backup #2 *)
  let _, pit_store = Tdb.Untrusted_store.open_mem () in
  let _, pit_counter = Tdb.One_way_counter.open_mem () in
  let pit_device = { device with Tdb.Device.store = pit_store; counter = pit_counter } in
  let db3 = Tdb.restore ~upto:b2 ~from:device.Tdb.Device.archive pit_device in
  dump db3 "restored (as of backup #2)";
  Tdb.close db3;

  (* validation: a tampered stream is rejected, never silently applied *)
  print_endline "corrupting backup #2 in the archive...";
  let name = List.nth (Tdb.Archival_store.list device.Tdb.Device.archive) 1 in
  let data = Option.get (Tdb.Archival_store.get device.Tdb.Device.archive ~name) in
  let b = Bytes.of_string data in
  Bytes.set b (String.length data / 2) 'X';
  Tdb.Archival_store.put device.Tdb.Device.archive ~name (Bytes.to_string b);
  let _, s4 = Tdb.Untrusted_store.open_mem () in
  let _, c4 = Tdb.One_way_counter.open_mem () in
  (match Tdb.restore ~from:device.Tdb.Device.archive { device with Tdb.Device.store = s4; counter = c4 } with
  | _ -> print_endline "restore succeeded (broken!)"
  | exception Tdb.Backup_store.Invalid_backup msg -> Printf.printf "restore refused: %s\n" msg);
  print_endline "backup_restore: ok"
