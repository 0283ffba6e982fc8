(* Quickstart: define a persistent class, store objects in an indexed
   collection, query them, and survive a restart.

   Run with: dune exec examples/quickstart.exe *)

(* 1. Define an application class — the OCaml equivalent of subclassing the
   paper's Object with pickle/unpickle methods. *)
type meter = { good : string; mutable views : int }

let meter_cls : meter Tdb.Obj_class.t =
  Tdb.Obj_class.define ~name:"quickstart.meter"
    ~pickle:(fun w m ->
      Tdb.Pickle.string w m.good;
      Tdb.Pickle.int w m.views)
    ~unpickle:(fun ~version:_ r ->
      let good = Tdb.Pickle.read_string r in
      let views = Tdb.Pickle.read_int r in
      { good; views })
    ()

(* 2. Functional indexes: keys are extracted by pure functions. *)
let by_good = Tdb.Indexer.make ~name:"good" ~key:Tdb.Gkey.string ~extract:(fun m -> m.good) ~unique:true ()
let by_views = Tdb.Indexer.make ~name:"views" ~key:Tdb.Gkey.int ~extract:(fun m -> m.views) ()
let indexers = [ Tdb.Indexer.Generic by_good; Tdb.Indexer.Generic by_views ]

let () =
  (* 3. A device bundles the platform stores; in-memory here, use
     Tdb.init_dir and Tdb.Device.open_dir for a durable one. *)
  let _attacker, device = Tdb.Device.in_memory ~seed:"quickstart" () in
  let db = Tdb.create device in

  (* 4. Create a collection and insert objects, transactionally. *)
  Tdb.with_ctxn db (fun ct ->
      let meters = Tdb.Cstore.create_collection ct ~name:"meters" ~schema:meter_cls by_good in
      Tdb.Cstore.create_index ct meters by_views;
      List.iter
        (fun (good, views) -> ignore (Tdb.Cstore.insert ct meters { good; views }))
        [ ("symphony-no-5.mp3", 3); ("guide-to-ocaml.epub", 12); ("noir-film.mp4", 0) ]);

  (* 5. Query: exact match on the unique index, then update through an
     iterator (indexes follow automatically). *)
  Tdb.with_ctxn db (fun ct ->
      let meters = Tdb.Cstore.open_collection ct ~name:"meters" ~schema:meter_cls ~indexers in
      let it = Tdb.Cstore.exact ct meters by_good "symphony-no-5.mp3" in
      let m = Tdb.Cstore.write it in
      m.views <- m.views + 1;
      Tdb.Cstore.advance it;
      Tdb.Cstore.close it);

  (* 6. Range query on the derived index. *)
  Tdb.with_ctxn db (fun ct ->
      let meters = Tdb.Cstore.open_collection ct ~name:"meters" ~schema:meter_cls ~indexers in
      let it = Tdb.Cstore.range ct meters by_views ~min:(Some 4) ~max:None in
      print_endline "goods with at least 4 views:";
      while not (Tdb.Cstore.at_end it) do
        let m = Tdb.Cstore.read it in
        Printf.printf "  %-22s %d views\n" m.good m.views;
        Tdb.Cstore.advance it
      done;
      Tdb.Cstore.close it);

  (* 7. Close and reopen: recovery validates the whole database against
     the anchor and the one-way counter. *)
  Tdb.close db;
  let db = Tdb.open_existing device in
  Tdb.with_ctxn db (fun ct ->
      let meters = Tdb.Cstore.open_collection ct ~name:"meters" ~schema:meter_cls ~indexers in
      Printf.printf "after restart: %d meters, symphony views = %d\n" (Tdb.Cstore.size ct meters)
        (let it = Tdb.Cstore.exact ct meters by_good "symphony-no-5.mp3" in
         let v = (Tdb.Cstore.read it).views in
         Tdb.Cstore.close it;
         v));
  Tdb.close db;
  print_endline "quickstart: ok"
