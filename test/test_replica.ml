(* Replication tests: a primary serving its archive feed, a follower
   ingesting it — from-empty and stale-chain convergence, reconnection,
   torn and bit-flipped frames leaving the follower readable at its
   previous snapshot, read-only session semantics on the follower, and
   end-to-end content equality between primary and converged follower. *)

module B = Tdb_backup.Backup_store
module R = Tdb_replica.Replica

let chunk_cfg every =
  {
    Tdb.Chunk_config.default with
    Tdb.Chunk_config.segment_size = 8192;
    initial_segments = 8;
    checkpoint_every = 64;
    anchor_slot_size = 2048;
    replica_interval_commits = every;
  }

type item = { id : int; mutable qty : int; label : string }

let item_cls : item Tdb.Obj_class.t =
  Tdb.Obj_class.define ~name:"test.replica.item"
    ~pickle:(fun w (i : item) ->
      Tdb.Pickle.int w i.id;
      Tdb.Pickle.int w i.qty;
      Tdb.Pickle.string w i.label)
    ~unpickle:(fun ~version:_ r ->
      let id = Tdb.Pickle.read_int r in
      let qty = Tdb.Pickle.read_int r in
      let label = Tdb.Pickle.read_string r in
      { id; qty; label })
    ()

let item_ix () : (item, int) Tdb.Indexer.t =
  Tdb.Indexer.make ~name:"id" ~key:Tdb.Gkey.int ~extract:(fun (i : item) -> i.id) ~unique:true
    ~impl:Tdb.Indexer.Hash ()

(* Shared secret seed: primary and follower are the same *device* in the
   paper's sense, scaled out. *)
let device_seed = "replica-test-device"

let make_device () =
  let _, store = Tdb.Untrusted_store.open_mem () in
  let _, counter = Tdb.One_way_counter.open_mem () in
  let ah, archive = Tdb.Archival_store.open_mem () in
  ( ah,
    {
      Tdb.Device.store;
      secret = Tdb.Secret_store.of_seed device_seed;
      counter;
      archive;
      extra = [||];
    } )

let expose srv =
  Tdb.Server.expose_collection srv ~name:"item" ~schema:item_cls
    ~indexers:[ Tdb.Indexer.Generic (item_ix ()) ]
    ~mutations:[ ("bump", fun (i : item) rd -> i.qty <- i.qty + Tdb.Pickle.read_int rd) ]
    ()

type primary = { pdb : Tdb.t; psrv : Tdb.Server.t; paddr : Tdb.Server.addr; parchive : Tdb.Archival_store.Mem.handle }

let start_primary ?(every = 1) () : primary =
  let ah, device = make_device () in
  let pdb = Tdb.create ~config:(chunk_cfg every) device in
  let psrv = Tdb.Server.create ~backups:pdb.Tdb.backups pdb.Tdb.objects (Tdb.Server.Tcp ("127.0.0.1", 0)) in
  expose psrv;
  Tdb.Server.start psrv;
  { pdb; psrv; paddr = Tdb.Server.Tcp ("127.0.0.1", Tdb.Server.port psrv); parchive = ah }

type follower = { fdb : Tdb.t; fsrv : Tdb.Server.t; faddr : Tdb.Server.addr }

let start_follower () : follower =
  let _, device = make_device () in
  let fdb = Tdb.create device in
  let config = { Tdb.Server.default_config with Tdb.Server.read_only = true } in
  let fsrv = Tdb.Server.create ~config ~backups:fdb.Tdb.backups fdb.Tdb.objects (Tdb.Server.Tcp ("127.0.0.1", 0)) in
  expose fsrv;
  Tdb.Server.start fsrv;
  { fdb; fsrv; faddr = Tdb.Server.Tcp ("127.0.0.1", Tdb.Server.port fsrv) }

let with_primary ?every f =
  let p = start_primary ?every () in
  Fun.protect ~finally:(fun () -> Tdb.Server.stop p.psrv) (fun () -> f p)

let with_follower p f =
  let fo = start_follower () in
  let rep =
    R.start
      ~config:{ R.default_config with R.poll = 0.02 }
      ~os:fo.fdb.Tdb.objects ~backups:fo.fdb.Tdb.backups ~from:p.paddr ()
  in
  Fun.protect
    ~finally:(fun () ->
      R.stop rep;
      Tdb.Server.stop fo.fsrv)
    (fun () -> f fo rep)

let with_client addr f =
  let c = Tdb.Client.connect addr in
  Fun.protect ~finally:(fun () -> Tdb.Client.close c) (fun () -> f c)

let load_items c n =
  Tdb.Client.begin_ c;
  for id = 0 to n - 1 do
    ignore (Tdb.Client.coll_insert c ~coll:"item" item_cls { id; qty = id * 10; label = "it" })
  done;
  Tdb.Client.commit ~durable:true c

let bump c id delta =
  Tdb.Client.begin_ c;
  ignore
    (Tdb.Client.coll_mutate c ~coll:"item" ~index:"id" ~mutation:"bump" Tdb.Gkey.int id item_cls
       ~arg:(fun w -> Tdb.Pickle.int w delta));
  Tdb.Client.commit ~durable:true c

let read_qty c id =
  Tdb.Client.with_txn ~durable:false c (fun () ->
      match Tdb.Client.coll_find c ~coll:"item" ~index:"id" Tdb.Gkey.int id item_cls with
      | Some (_, i) -> Some i.qty
      | None -> None)

(* --- from-empty convergence, content equality, read-only sessions --- *)

let test_from_empty_and_read_only () =
  with_primary (fun p ->
      with_client p.paddr (fun cp ->
          load_items cp 20;
          bump cp 3 5;
          bump cp 7 7;
          with_follower p (fun fo rep ->
              Alcotest.(check bool) "converged" true (R.wait_converged ~timeout:30. rep);
              let st = R.status rep in
              Alcotest.(check bool) "frames applied" true (st.R.frames_applied > 0);
              Alcotest.(check int) "no rejects" 0 st.R.frames_rejected;
              with_client fo.faddr (fun cf ->
                  (* every object the primary has, at the same contents *)
                  for id = 0 to 19 do
                    Alcotest.(check (option int))
                      (Printf.sprintf "item %d equal" id)
                      (read_qty cp id) (read_qty cf id)
                  done;
                  (* writes are refused with the typed read_only error *)
                  Tdb.Client.begin_ cf;
                  (match
                     Tdb.Client.coll_insert cf ~coll:"item" item_cls { id = 99; qty = 0; label = "w" }
                   with
                  | _ -> Alcotest.fail "follower accepted an insert"
                  | exception Tdb.Client.Server_error { tag; _ } ->
                      Alcotest.(check string) "insert tag" "read_only" tag);
                  Tdb.Client.abort cf;
                  (* durable commits are refused too (they would advance the
                     follower's log independently of the feed) *)
                  Tdb.Client.begin_ cf;
                  (match Tdb.Client.commit ~durable:true cf with
                  | () -> Alcotest.fail "follower accepted a durable commit"
                  | exception Tdb.Client.Server_error { tag; _ } ->
                      Alcotest.(check string) "commit tag" "read_only" tag);
                  Tdb.Client.abort cf;
                  (* the chain position shows up in the follower's metrics *)
                  Alcotest.(check bool) "metrics chain advanced" true
                    (match Tdb.Metrics.find (Tdb.Client.metrics cf) "backup.last_id" with
                    | Some (Tdb.Metrics.Int n) -> n > 0
                    | _ -> false)))))

(* --- stale chain: follower restarts after the primary moved on --- *)

let test_stale_chain_and_reconnect () =
  with_primary (fun p ->
      with_client p.paddr (fun cp ->
          load_items cp 10;
          let fo = start_follower () in
          Fun.protect
            ~finally:(fun () -> Tdb.Server.stop fo.fsrv)
            (fun () ->
              let rep1 =
                R.start
                  ~config:{ R.default_config with R.poll = 0.02 }
                  ~os:fo.fdb.Tdb.objects ~backups:fo.fdb.Tdb.backups ~from:p.paddr ()
              in
              Alcotest.(check bool) "first convergence" true (R.wait_converged ~timeout:30. rep1);
              R.stop rep1;
              (* primary advances while the follower is down; include a
                 fresh full mid-chain so the restart exercises the in-place
                 re-bootstrap path as well as incremental catch-up *)
              bump cp 1 100;
              bump cp 2 200;
              Tdb.Object_store.with_store p.pdb.Tdb.objects (fun _ ->
                  ignore (Tdb.Backup_store.backup_full p.pdb.Tdb.backups));
              bump cp 3 300;
              let rep2 =
                R.start
                  ~config:{ R.default_config with R.poll = 0.02 }
                  ~os:fo.fdb.Tdb.objects ~backups:fo.fdb.Tdb.backups ~from:p.paddr ()
              in
              Fun.protect
                ~finally:(fun () -> R.stop rep2)
                (fun () ->
                  Alcotest.(check bool) "stale convergence" true (R.wait_converged ~timeout:30. rep2);
                  with_client fo.faddr (fun cf ->
                      Alcotest.(check (option int)) "bumped 1" (read_qty cp 1) (read_qty cf 1);
                      Alcotest.(check (option int)) "bumped 3" (read_qty cp 3) (read_qty cf 3))))))

(* --- torn / bit-flipped streams at the ingest layer --- *)

let archive_streams (db : Tdb.t) : (int * string) list =
  let archive = db.Tdb.device.Tdb.Device.archive in
  Tdb.Archival_store.list archive
  |> List.filter_map (fun name ->
         match B.parse_name name with
         | Some (id, _) -> (
             match Tdb.Archival_store.get archive ~name with Some s -> Some (id, s) | None -> None)
         | None -> None)
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let flip s pos =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
  Bytes.to_string b

let ingest (fdb : Tdb.t) stream =
  Tdb.Object_store.ingest fdb.Tdb.objects (fun _ -> B.apply_stream fdb.Tdb.backups stream)

let follower_qty (fdb : Tdb.t) id =
  Tdb.with_ctxn ~durable:false fdb (fun ct ->
      let coll =
        Tdb.Cstore.open_collection ~indexers:[ Tdb.Indexer.Generic (item_ix ()) ] ct ~name:"item"
          ~schema:item_cls
      in
      let it = Tdb.Cstore.exact ct coll (item_ix ()) id in
      let r = if Tdb.Cstore.at_end it then None else Some (Tdb.Cstore.read it).qty in
      Tdb.Cstore.close it;
      r)

let test_tampered_and_torn_frames () =
  let _, pdev = make_device () in
  let pdb = Tdb.create pdev in
  Tdb.with_ctxn ~durable:true pdb (fun ct ->
      let coll = Tdb.Cstore.create_collection ct ~name:"item" ~schema:item_cls (item_ix ()) in
      for id = 0 to 9 do
        ignore (Tdb.Cstore.insert ct coll { id; qty = id; label = "t" })
      done);
  ignore (Tdb.backup_full pdb);
  Tdb.with_ctxn ~durable:true pdb (fun ct ->
      let coll =
        Tdb.Cstore.open_collection ~indexers:[ Tdb.Indexer.Generic (item_ix ()) ] ct ~name:"item"
          ~schema:item_cls
      in
      let it = Tdb.Cstore.exact ct coll (item_ix ()) 5 in
      let v = Tdb.Cstore.write it in
      v.qty <- 500;
      Tdb.Cstore.close it);
  ignore (Tdb.backup_incremental pdb);
  let streams = List.map snd (archive_streams pdb) in
  let full, incr = match streams with [ f; i ] -> (f, i) | _ -> Alcotest.fail "expected 2 streams" in
  let _, fdev = make_device () in
  let fdb = Tdb.create fdev in
  (match ingest fdb full with Some _ -> () | None -> Alcotest.fail "full refused");
  Alcotest.(check (option int)) "snapshot 1 visible" (Some 5) (follower_qty fdb 5);
  (* a bit-flipped incremental must be rejected with the store unchanged *)
  List.iter
    (fun pos ->
      match ingest fdb (flip incr pos) with
      | Some _ -> Alcotest.fail (Printf.sprintf "tampered frame (flip at %d) accepted" pos)
      | None -> Alcotest.fail "quiesce refused with no readers"
      | exception B.Invalid_backup _ -> ()
      | exception Tdb.Pickle.Error _ -> ())
    [ 2; 40; String.length incr - 3 ];
  (* a torn (truncated) incremental likewise *)
  List.iter
    (fun len ->
      match ingest fdb (String.sub incr 0 len) with
      | Some _ -> Alcotest.fail "torn frame accepted"
      | None -> Alcotest.fail "quiesce refused with no readers"
      | exception B.Invalid_backup _ -> ()
      | exception Tdb.Pickle.Error _ -> ())
    [ 0; 10; String.length incr / 2; String.length incr - 1 ];
  Alcotest.(check (option int)) "still at snapshot 1" (Some 5) (follower_qty fdb 5);
  Alcotest.(check int) "chain unmoved" 1 (B.chain_state fdb.Tdb.backups).B.last_id;
  (* the genuine frame still applies afterwards *)
  (match ingest fdb incr with Some _ -> () | None -> Alcotest.fail "genuine incr refused");
  Alcotest.(check (option int)) "snapshot 2 visible" (Some 500) (follower_qty fdb 5);
  Alcotest.(check int) "chain advanced" 2 (B.chain_state fdb.Tdb.backups).B.last_id

(* --- tampered frame on the wire: reject, stay readable, self-heal --- *)

let read_qty_follower fo id = follower_qty fo.fdb id

let test_wire_tamper_self_heal () =
  with_primary (fun p ->
      with_client p.paddr (fun cp ->
          load_items cp 8;
          bump cp 1 10;
          bump cp 2 20;
          (* corrupt the newest incremental in the primary's archive *)
          let names = archive_streams p.pdb in
          let last_id = List.fold_left (fun m (id, _) -> max m id) 0 names in
          Alcotest.(check bool) "several backups" true (last_id >= 3);
          let name = Printf.sprintf "tdb-%06d-incr" last_id in
          Tdb.Archival_store.Mem.corrupt p.parchive ~name ~pos:12 ~mask:0x40;
          with_follower p (fun fo rep ->
              (* the follower must reject the damaged frame and stay
                 readable at the boundary before it *)
              let deadline = Unix.gettimeofday () +. 30. in
              let rec wait_reject () =
                let st = R.status rep in
                if st.R.frames_rejected >= 1 then st
                else if Unix.gettimeofday () >= deadline then Alcotest.fail "no rejection observed"
                else begin
                  Thread.delay 0.01;
                  wait_reject ()
                end
              in
              let st = wait_reject () in
              Alcotest.(check int) "stalled just before damaged frame" (last_id - 1) st.R.applied_id;
              (* backup 2 (bump of item 1) is applied; backup 3 (bump of
                 item 2) is the damaged one, so item 2 still reads its
                 pre-bump value *)
              Alcotest.(check (option int)) "applied frame visible" (Some 20) (read_qty_follower fo 1);
              Alcotest.(check (option int)) "readable at previous snapshot" (Some 20)
                (read_qty_follower fo 2);
              (* heal the archive (XOR is its own inverse); the follower's
                 retry-from-chain-state resubscription then converges *)
              Tdb.Archival_store.Mem.corrupt p.parchive ~name ~pos:12 ~mask:0x40;
              Alcotest.(check bool) "healed convergence" true (R.wait_converged ~timeout:30. rep);
              Alcotest.(check (option int)) "bumped 1" (read_qty cp 1) (read_qty_follower fo 1);
              Alcotest.(check (option int)) "bumped 2" (read_qty cp 2) (read_qty_follower fo 2))))

let () =
  Alcotest.run "replica"
    [
      ( "replica",
        [
          Alcotest.test_case "from-empty convergence + read-only" `Quick test_from_empty_and_read_only;
          Alcotest.test_case "stale chain + reconnect" `Quick test_stale_chain_and_reconnect;
          Alcotest.test_case "tampered and torn frames" `Quick test_tampered_and_torn_frames;
          Alcotest.test_case "wire tamper self-heal" `Quick test_wire_tamper_self_heal;
        ] );
    ]
