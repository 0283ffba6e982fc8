(* Network service tests: RPC round trips, transactional semantics over
   the wire, session hygiene (abrupt disconnect, idle timeout), and the
   end-to-end acceptance run — concurrent client sessions committing
   interleaved transactions with group commit coalescing their durable
   barriers. *)

open Tdb_platform
open Tdb_chunk
open Tdb_objstore
open Tdb_collection
open Tdb_server

let chunk_cfg =
  { Config.default with Config.segment_size = 8192; initial_segments = 8; checkpoint_every = 64;
    anchor_slot_size = 2048 }

type item = { id : int; mutable qty : int; label : string }

let item_cls : item Obj_class.t =
  Obj_class.define ~name:"test.server.item"
    ~pickle:(fun w (i : item) ->
      Tdb_pickle.Pickle.int w i.id;
      Tdb_pickle.Pickle.int w i.qty;
      Tdb_pickle.Pickle.string w i.label)
    ~unpickle:(fun ~version:_ r ->
      let id = Tdb_pickle.Pickle.read_int r in
      let qty = Tdb_pickle.Pickle.read_int r in
      let label = Tdb_pickle.Pickle.read_string r in
      { id; qty; label })
    ()

let item_ix () : (item, int) Indexer.t =
  Indexer.make ~name:"id" ~key:Gkey.int ~extract:(fun (i : item) -> i.id) ~unique:true
    ~impl:Indexer.Hash ()

type env = { os : Object_store.t; srv : Server.t; addr : Server.addr }

let with_server ?(config = Server.default_config) ?(lock_timeout = 1.0) ?(shards = 1) f =
  let stores = Array.init shards (fun _ -> snd (Untrusted_store.open_mem ())) in
  let counters = Array.init shards (fun _ -> snd (One_way_counter.open_mem ())) in
  let cs =
    Shard_store.create ~config:{ chunk_cfg with Config.shards } ~secret:(Secret_store.of_seed "server-test")
      ~counters stores
  in
  let os =
    Object_store.of_shard_store
      ~config:{ Object_store.default_config with Object_store.lock_timeout }
      cs
  in
  let srv = Server.create ~config os (Server.Tcp ("127.0.0.1", 0)) in
  Server.expose_class srv item_cls;
  Server.expose_collection srv ~name:"item" ~schema:item_cls
    ~indexers:[ Indexer.Generic (item_ix ()) ]
    ~mutations:[ ("bump", fun (i : item) rd -> i.qty <- i.qty + Tdb_pickle.Pickle.read_int rd) ]
    ();
  Server.start srv;
  let env = { os; srv; addr = Server.Tcp ("127.0.0.1", Server.port srv) } in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f env)

(* --- typed objects and roots over the wire --- *)

let test_rpc_objects () =
  with_server (fun env ->
      let c = Client.connect env.addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let oid =
            Client.with_txn c (fun () ->
                let oid = Client.insert c item_cls { id = 1; qty = 10; label = "first" } in
                Client.set_root c "main" (Some oid);
                oid)
          in
          Alcotest.(check (option int)) "root visible" (Some oid) (Client.get_root c "main");
          Client.with_txn c (fun () ->
              let v = Client.read c item_cls oid in
              Alcotest.(check int) "read qty" 10 v.qty;
              Alcotest.(check string) "read label" "first" v.label;
              Client.update c item_cls oid { v with qty = 11 });
          (* aborted writes stay invisible *)
          Client.begin_ c;
          Client.update c item_cls oid { id = 1; qty = 999; label = "first" };
          Client.abort c;
          Client.with_txn c (fun () ->
              Alcotest.(check int) "abort rolled back" 11 (Client.read c item_cls oid).qty;
              Client.remove c oid);
          Client.with_txn c (fun () ->
              match Client.read c item_cls oid with
              | _ -> Alcotest.fail "removed object still readable"
              | exception Client.Server_error _ -> ())))

let test_rpc_collections () =
  with_server (fun env ->
      let c = Client.connect env.addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.with_txn c (fun () ->
              for id = 0 to 9 do
                ignore (Client.coll_insert c ~coll:"item" item_cls { id; qty = id; label = "x" })
              done);
          Alcotest.(check int) "size" 10 (Client.with_txn c (fun () -> Client.coll_size c ~coll:"item"));
          Client.with_txn c (fun () ->
              (match Client.coll_find c ~coll:"item" ~index:"id" Gkey.int 7 item_cls with
              | Some (_, i) -> Alcotest.(check int) "find" 7 i.qty
              | None -> Alcotest.fail "item 7 missing");
              Alcotest.(check (option (pair int int)))
                "find miss" None
                (Option.map (fun (o, (i : item)) -> (o, i.qty))
                   (Client.coll_find c ~coll:"item" ~index:"id" Gkey.int 42 item_cls)));
          (* a named mutation is a one-round-trip read-modify-write *)
          let updated =
            Client.with_txn c (fun () ->
                Client.coll_mutate c ~coll:"item" ~index:"id" ~mutation:"bump" Gkey.int 7 item_cls
                  ~arg:(fun w -> Tdb_pickle.Pickle.int w 5))
          in
          Alcotest.(check int) "mutated" 12 updated.qty;
          (* unique index violations surface as typed wire errors *)
          Client.begin_ c;
          (match Client.coll_insert c ~coll:"item" item_cls { id = 3; qty = 0; label = "dup" } with
          | _ -> Alcotest.fail "duplicate key accepted"
          | exception Client.Server_error { tag = "duplicate_key"; _ } -> ());
          Client.abort c;
          let all =
            Client.with_txn c (fun () -> Client.coll_scan c ~coll:"item" ~index:"id" Gkey.int item_cls)
          in
          Alcotest.(check int) "scan size" 10 (List.length all)))

(* --- session hygiene --- *)

(* A client that vanishes mid-transaction must not strand its locks: the
   server aborts the session on disconnect, and a second client gets the
   exclusive lock well within its timeout. *)
let test_disconnect_releases_locks () =
  with_server ~lock_timeout:5.0 (fun env ->
      let c0 = Client.connect env.addr in
      let oid =
        Client.with_txn c0 (fun () -> Client.insert c0 item_cls { id = 0; qty = 0; label = "l" })
      in
      Client.close c0;
      let a = Client.connect env.addr in
      Client.begin_ a;
      Client.update a item_cls oid { id = 0; qty = 666; label = "a" };
      (* [a] now holds the exclusive lock — and dies without a word *)
      Client.disconnect_abruptly a;
      let b = Client.connect env.addr in
      Fun.protect
        ~finally:(fun () -> Client.close b)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          Client.with_txn b (fun () -> Client.update b item_cls oid { id = 0; qty = 1; label = "b" });
          Alcotest.(check bool) "lock released promptly" true (Unix.gettimeofday () -. t0 < 4.0);
          Client.with_txn b (fun () ->
              let v = Client.read b item_cls oid in
              Alcotest.(check int) "dead session's write discarded" 1 v.qty));
      Alcotest.(check int) "no locks held" 0 (Object_store.held_count env.os))

(* An idle session is reaped after [idle_timeout] and its transaction is
   aborted. *)
let test_idle_timeout () =
  with_server
    ~config:{ Server.default_config with Server.idle_timeout = 0.3 }
    ~lock_timeout:5.0
    (fun env ->
      let c0 = Client.connect env.addr in
      let oid =
        Client.with_txn c0 (fun () -> Client.insert c0 item_cls { id = 0; qty = 0; label = "l" })
      in
      Client.close c0;
      let a = Client.connect env.addr in
      Client.begin_ a;
      Client.update a item_cls oid { id = 0; qty = 666; label = "a" };
      Thread.delay 1.0;
      (* the server has dropped [a]; its lock is gone *)
      let b = Client.connect env.addr in
      Fun.protect
        ~finally:(fun () -> Client.close b)
        (fun () ->
          Client.with_txn b (fun () -> Client.update b item_cls oid { id = 0; qty = 2; label = "b" }));
      Alcotest.(check bool) "reaped session errors out" true
        (match Client.begin_ a with _ -> false | exception _ -> true);
      Alcotest.(check int) "no locks held" 0 (Object_store.held_count env.os))

(* --- the acceptance run: concurrent sessions + group commit --- *)

(* Four client sessions commit interleaved TPC-B transactions durably over
   the wire. The balances must add up (serializable interleaving), and
   with group commit on, the coalesced barriers must cost fewer one-way
   counter bumps than there were durable commits. *)
let test_e2e_group_commit () =
  let r = Tdb_tpcb.Net_driver.run ~clients:4 ~txns_per_client:12 ~group_commit:true () in
  Alcotest.(check int) "all transactions committed" 48 r.Tdb_tpcb.Net_driver.committed;
  Alcotest.(check bool) "balances consistent" true r.Tdb_tpcb.Net_driver.balance_ok;
  Alcotest.(check bool)
    (Printf.sprintf "coalesced: %d barriers for %d durable commits" r.Tdb_tpcb.Net_driver.barriers
       r.Tdb_tpcb.Net_driver.durable_requests)
    true
    (r.Tdb_tpcb.Net_driver.barriers < r.Tdb_tpcb.Net_driver.durable_requests)

(* Control: with group commit off every durable commit pays its own
   barrier. *)
let test_e2e_no_group_commit () =
  let r = Tdb_tpcb.Net_driver.run ~clients:4 ~txns_per_client:4 ~group_commit:false () in
  Alcotest.(check bool) "balances consistent" true r.Tdb_tpcb.Net_driver.balance_ok;
  Alcotest.(check int) "one barrier per durable commit" r.Tdb_tpcb.Net_driver.durable_requests
    r.Tdb_tpcb.Net_driver.barriers

(* The server's metrics are its own [server.*] / [group_commit.*] entries
   followed by the store's list, so every name the local store reports
   (what [tdb_cli status] prints) also arrives over the wire. *)
let test_stats_counters () =
  List.iter
    (fun shards ->
      with_server ~shards (fun env ->
          let clients = List.init 4 (fun _ -> Client.connect env.addr) in
          List.iteri
            (fun i c ->
              Client.with_txn c (fun () ->
                  ignore (Client.coll_insert c ~coll:"item" item_cls { id = i; qty = i; label = "s" })))
            clients;
          let remote =
            match clients with c :: _ -> Client.metrics c | [] -> Alcotest.fail "no clients"
          in
          let local = Object_store.with_store env.os Shard_store.metrics in
          let int name =
            match Metrics.find remote name with
            | Some (Metrics.Int n) -> n
            | _ -> Alcotest.failf "no int metric %s at width %d" name shards
          in
          List.iter
            (fun (name, _) ->
              if Option.is_none (Metrics.find remote name) then
                Alcotest.failf "local metric %s missing remotely at width %d" name shards)
            local;
          Alcotest.(check bool) "live sessions" true (int "server.sessions" >= 4);
          Alcotest.(check bool) "sessions counted" true (int "server.sessions_total" >= 4);
          Alcotest.(check bool) "commits counted" true (int "server.committed" >= 4);
          Alcotest.(check int) "width" shards (int "shard.width");
          ignore (int (Printf.sprintf "shard.%d.counter" (shards - 1)));
          List.iter Client.close clients))
    [ 1; 4 ]

(* --- the Metrics wire op --- *)

let sample_metrics =
  Metrics.
    [
      ("a.int", Int (-42)); ("a.max", Int max_int); ("b.float", Float 0.125); ("b.big", Float (-1.5e300));
      ("c.text", Text "on"); ("c.empty", Text "");
    ]

let test_metrics_roundtrip () =
  (match Proto.decode_request (Proto.encode_request Proto.Metrics) with
  | Proto.Metrics -> ()
  | _ -> Alcotest.fail "Metrics request did not round-trip");
  match Proto.decode_response (Proto.encode_response (Proto.Ok_metrics sample_metrics)) with
  | Proto.Ok_metrics m -> Alcotest.(check bool) "all three value tags round-trip" true (m = sample_metrics)
  | _ -> Alcotest.fail "Ok_metrics did not round-trip"

(* A metrics frame comes off an untrusted wire: every truncation and every
   single-byte substitution must decode to a value or a typed error. *)
let test_metrics_frame_fuzz () =
  let frame = Proto.encode_response (Proto.Ok_metrics sample_metrics) in
  let decodes label bytes =
    match Proto.decode_response bytes with
    | _ -> ()
    | exception (Proto.Proto_error _ | Tdb_pickle.Pickle.Error _) -> ()
    | exception e -> Alcotest.failf "%s: %s" label (Printexc.to_string e)
  in
  for len = 0 to String.length frame - 1 do
    decodes (Printf.sprintf "prefix of %d bytes" len) (String.sub frame 0 len)
  done;
  String.iteri
    (fun i c ->
      for x = 1 to 255 do
        let b = Bytes.of_string frame in
        Bytes.set b i (Char.chr (Char.code c lxor x));
        decodes (Printf.sprintf "byte %d xor %d" i x) (Bytes.to_string b)
      done)
    frame

(* --- remote restore: pull the archive over the wire, rebuild locally --- *)

(* A server without an archive refuses the backup opcodes with a typed
   error rather than dropping the session. *)
let test_no_archive_refused () =
  with_server (fun env ->
      let c = Client.connect env.addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.list_backups c with
          | _ -> Alcotest.fail "archive listed without an archive"
          | exception Client.Server_error { tag = "no_archive"; _ } -> ());
          match Client.fetch_backup c ~name:"backup-000001-full" with
          | _ -> Alcotest.fail "stream served without an archive"
          | exception Client.Server_error { tag = "no_archive"; _ } -> ()))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let copy_file src dst =
  let ic = open_in_bin src in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o600 dst in
  output_string oc data;
  close_out oc

(* End-to-end remote point-in-time restore, the flow behind
   [tdb remote-restore --upto]: a primary on disk takes a full backup and
   two incrementals, a client lists and fetches the streams over the wire,
   stages them into a fresh directory next to a copy of the device secret,
   and the ordinary validated restore rebuilds the database — cut at
   backup 2 ([--upto]) and at the newest. *)
let test_remote_restore () =
  let tmp = Filename.temp_file "tdb-remote-restore" "" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o700;
  Fun.protect
    ~finally:(fun () -> rm_rf tmp)
    (fun () ->
      let pdir = Filename.concat tmp "primary" in
      Unix.mkdir pdir 0o700;
      let db = Tdb.create (Tdb.Device.at_dir pdir) in
      let ix = item_ix () in
      Tdb.with_ctxn db (fun ct ->
          let coll = Tdb.Cstore.create_collection ct ~name:"item" ~schema:item_cls ix in
          ignore (Tdb.Cstore.insert ct coll { id = 1; qty = 1; label = "pit" }));
      let set_qty q =
        Tdb.with_ctxn db (fun ct ->
            let coll =
              Tdb.Cstore.open_collection ct ~name:"item" ~schema:item_cls
                ~indexers:[ Tdb.Indexer.Generic ix ]
            in
            let it = Tdb.Cstore.exact ct coll ix 1 in
            (Tdb.Cstore.write it).qty <- q;
            Tdb.Cstore.advance it;
            Tdb.Cstore.close it)
      in
      Alcotest.(check int) "full backup id" 1 (Tdb.backup_full db);
      set_qty 2;
      Alcotest.(check int) "incremental id" 2 (Tdb.backup_incremental db);
      set_qty 3;
      Alcotest.(check int) "incremental id" 3 (Tdb.backup_incremental db);
      let srv = Server.create ~backups:db.Tdb.backups db.Tdb.objects (Server.Tcp ("127.0.0.1", 0)) in
      Server.start srv;
      let fetched =
        Fun.protect
          ~finally:(fun () -> Server.stop srv)
          (fun () ->
            let c = Client.connect (Server.Tcp ("127.0.0.1", Server.port srv)) in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                let index = Client.list_backups c in
                Alcotest.(check (list int)) "archive index ids" [ 1; 2; 3 ] (List.map fst index);
                (match Client.fetch_backup c ~name:"no-such-stream" with
                | _ -> Alcotest.fail "bogus stream name served"
                | exception Client.Server_error { tag = "not_found"; _ } -> ());
                List.map (fun (id, name) -> (id, name, Client.fetch_backup c ~name)) index))
      in
      Tdb.close db;
      let qty_at dir =
        let rdb = Tdb.open_existing (Tdb.Device.at_dir dir) in
        Fun.protect
          ~finally:(fun () -> Tdb.close rdb)
          (fun () ->
            Tdb.with_ctxn rdb (fun ct ->
                let coll =
                  Tdb.Cstore.open_collection ct ~name:"item" ~schema:item_cls
                    ~indexers:[ Tdb.Indexer.Generic ix ]
                in
                let it = Tdb.Cstore.exact ct coll ix 1 in
                let q = (Tdb.Cstore.read it).qty in
                Tdb.Cstore.close it;
                q))
      in
      let stage dir keep =
        Unix.mkdir dir 0o700;
        copy_file (Filename.concat pdir "secret") (Filename.concat dir "secret");
        let bdir = Filename.concat dir "backups" in
        Unix.mkdir bdir 0o700;
        List.iter
          (fun (id, name, stream) ->
            if keep id then begin
              let oc =
                open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o600
                  (Filename.concat bdir name)
              in
              output_string oc stream;
              close_out oc
            end)
          fetched
      in
      let pit = Filename.concat tmp "pit" in
      stage pit (fun id -> id <= 2);
      let device = Tdb.Device.at_dir pit in
      Tdb.close (Tdb.restore ~upto:2 ~from:device device);
      Alcotest.(check int) "point-in-time state (--upto 2)" 2 (qty_at pit);
      let full = Filename.concat tmp "full" in
      stage full (fun _ -> true);
      let device = Tdb.Device.at_dir full in
      Tdb.close (Tdb.restore ~from:device device);
      Alcotest.(check int) "newest state" 3 (qty_at full))

let () =
  Alcotest.run "tdb_server"
    [
      ( "rpc",
        [
          Alcotest.test_case "typed objects + roots" `Quick test_rpc_objects;
          Alcotest.test_case "collections + mutations" `Quick test_rpc_collections;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "disconnect releases locks" `Quick test_disconnect_releases_locks;
          Alcotest.test_case "idle timeout reaps session" `Slow test_idle_timeout;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
        ] );
      ( "wire",
        [
          Alcotest.test_case "metrics round trip" `Quick test_metrics_roundtrip;
          Alcotest.test_case "metrics frame prefixes and flips" `Quick test_metrics_frame_fuzz;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "4 concurrent clients, group commit" `Slow test_e2e_group_commit;
          Alcotest.test_case "group commit off control" `Slow test_e2e_no_group_commit;
        ] );
      ( "archive",
        [
          Alcotest.test_case "no archive refused" `Quick test_no_archive_refused;
          Alcotest.test_case "remote point-in-time restore" `Quick test_remote_restore;
        ] );
    ]
