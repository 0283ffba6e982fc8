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

let with_server ?(config = Server.default_config) ?(lock_timeout = 1.0) f =
  let cs =
    Chunk_store.create ~config:chunk_cfg ~secret:(Secret_store.of_seed "server-test")
      ~counter:(snd (One_way_counter.open_mem ()))
      (snd (Untrusted_store.open_mem ()))
  in
  let os =
    Object_store.of_shard_store
      ~config:{ Object_store.default_config with Object_store.lock_timeout }
      cs
  in
  let srv = Server.create ~config os (Server.Tcp ("127.0.0.1", 0)) in
  Server.expose_collection srv ~name:"item" ~schema:item_cls
    ~indexers:[ Indexer.Generic (item_ix ()) ]
    ~mutations:[ ("bump", fun (i : item) rd -> i.qty <- i.qty + Tdb_pickle.Pickle.read_int rd) ]
    ();
  Server.start srv;
  let env = { os; srv; addr = Server.Tcp ("127.0.0.1", Server.port srv) } in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f env)

(* --- typed objects through a collection --- *)

let find c id = Option.map snd (Client.coll_find c ~coll:"item" ~index:"id" Gkey.int id item_cls)

let bump c id n =
  Client.coll_mutate c ~coll:"item" ~index:"id" ~mutation:"bump" Gkey.int id item_cls
    ~arg:(fun w -> Tdb_pickle.Pickle.int w n)

let qty c id = match find c id with Some i -> i.qty | None -> Alcotest.failf "item %d missing" id

let test_rpc_objects () =
  with_server (fun env ->
      let c = Client.connect env.addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.with_txn c (fun () ->
              ignore (Client.coll_insert c ~coll:"item" item_cls { id = 1; qty = 10; label = "first" });
              (* a transaction reads its own write *)
              match find c 1 with
              | Some v ->
                  Alcotest.(check int) "read qty" 10 v.qty;
                  Alcotest.(check string) "read label" "first" v.label
              | None -> Alcotest.fail "own insert invisible");
          Client.with_txn c (fun () -> Alcotest.(check int) "bumped" 11 (bump c 1 1).qty);
          (* aborted writes stay invisible *)
          Client.begin_ c;
          Alcotest.(check int) "bump seen in txn" 999 (bump c 1 988).qty;
          Client.abort c;
          Client.with_txn c (fun () -> Alcotest.(check int) "abort rolled back" 11 (qty c 1))))

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
      Client.with_txn c0 (fun () ->
          ignore (Client.coll_insert c0 ~coll:"item" item_cls { id = 0; qty = 0; label = "l" }));
      Client.close c0;
      let a = Client.connect env.addr in
      Client.begin_ a;
      ignore (bump a 0 666);
      (* [a] now holds the exclusive lock — and dies without a word *)
      Client.disconnect_abruptly a;
      let b = Client.connect env.addr in
      Fun.protect
        ~finally:(fun () -> Client.close b)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          Client.with_txn b (fun () -> ignore (bump b 0 1));
          Alcotest.(check bool) "lock released promptly" true (Unix.gettimeofday () -. t0 < 4.0);
          Client.with_txn b (fun () -> Alcotest.(check int) "dead session's write discarded" 1 (qty b 0)));
      Alcotest.(check int) "no locks held" 0 (Object_store.held_count env.os))

(* An idle session is reaped after [idle_timeout] and its transaction is
   aborted. *)
let test_idle_timeout () =
  with_server
    ~config:{ Server.default_config with Server.idle_timeout = 0.3 }
    ~lock_timeout:5.0
    (fun env ->
      let c0 = Client.connect env.addr in
      Client.with_txn c0 (fun () ->
          ignore (Client.coll_insert c0 ~coll:"item" item_cls { id = 0; qty = 0; label = "l" }));
      Client.close c0;
      let a = Client.connect env.addr in
      Client.begin_ a;
      ignore (bump a 0 666);
      Thread.delay 1.0;
      (* the server has dropped [a]; its lock is gone *)
      let b = Client.connect env.addr in
      Fun.protect
        ~finally:(fun () -> Client.close b)
        (fun () ->
          Client.with_txn b (fun () -> ignore (bump b 0 2));
          Client.with_txn b (fun () -> Alcotest.(check int) "reaped session's write discarded" 2 (qty b 0)));
      Alcotest.(check bool) "reaped session errors out" true
        (match Client.begin_ a with _ -> false | exception _ -> true);
      Alcotest.(check int) "no locks held" 0 (Object_store.held_count env.os))

(* --- the acceptance run: concurrent sessions + group commit --- *)

(* Eight client sessions commit interleaved TPC-B transactions durably
   over the wire. The balances must add up (serializable interleaving),
   and with group commit on, one barrier must cover at least two durable
   commits on average. That holds only while the barrier's sync runs
   outside the state mutex, so commits land in its window: a barrier that
   holds the mutex through the sync pays about 0.7 barriers per commit at
   this width. *)
let test_e2e_group_commit () =
  let r = Tdb_tpcb.Net_driver.run ~clients:8 ~txns_per_client:12 () in
  Alcotest.(check int) "all transactions committed" 96 r.Tdb_tpcb.Net_driver.committed;
  Alcotest.(check bool) "balances consistent" true r.Tdb_tpcb.Net_driver.balance_ok;
  Alcotest.(check bool)
    (Printf.sprintf "coalesced: %d barriers for %d durable commits" r.Tdb_tpcb.Net_driver.barriers
       r.Tdb_tpcb.Net_driver.durable_requests)
    true
    (2 * r.Tdb_tpcb.Net_driver.barriers <= r.Tdb_tpcb.Net_driver.durable_requests)

(* The server's metrics are its own [server.*] entries, the object
   store's [object_cache.*] / [group_commit.*] ones, then the store's
   list, so every name the local store reports (what [tdb_cli status]
   prints) also arrives over the wire. *)
let test_stats_counters () =
  with_server (fun env ->
      let clients = List.init 4 (fun _ -> Client.connect env.addr) in
      List.iteri
        (fun i c ->
          Client.with_txn c (fun () -> ignore (Client.coll_insert c ~coll:"item" item_cls { id = i; qty = i; label = "s" })))
        clients;
      let remote = match clients with c :: _ -> Client.metrics c | [] -> Alcotest.fail "no clients" in
      let local = Object_store.with_store env.os Chunk_store.metrics in
      let int name =
        match Metrics.find remote name with Some (Metrics.Int n) -> n | _ -> Alcotest.failf "no int metric %s" name
      in
      List.iter
        (fun (name, _) ->
          if Option.is_none (Metrics.find remote name) then Alcotest.failf "local metric %s missing remotely" name)
        local;
      Alcotest.(check bool) "live sessions" true (int "server.sessions" >= 4);
      Alcotest.(check bool) "sessions counted" true (int "server.sessions_total" >= 4);
      Alcotest.(check bool) "commits counted" true (int "server.committed" >= 4);
      (* the chain position comes from the archive, and this server has none *)
      Alcotest.(check bool) "no archive, no backup rows" true (Option.is_none (Metrics.find remote "backup.last_id"));
      Alcotest.(check bool) "live segments gauged" true (int "cleaner.live_segments" > 0);
      Alcotest.(check bool) "object cache gauged" true (int "object_cache.resident" > 0);
      List.iter Client.close clients)

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

(* Raw frames on a fresh connection, for peers the client library would
   never be: an older protocol, or none at all. *)
let with_raw env f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port env.srv));
      f fd)

let opcode_frame op fields =
  let w = Tdb_pickle.Pickle.writer () in
  Tdb_pickle.Pickle.byte w op;
  fields w;
  Tdb_pickle.Pickle.contents w

(* Send a frame the server may already have hung up on. *)
let send fd payload =
  match Proto.write_frame fd payload with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

let ask fd req =
  send fd (Proto.encode_request req);
  Proto.decode_response (Proto.read_frame fd)

let hello fd version = ask fd (Proto.Hello { r_magic = Proto.magic; r_version = version })

let check_dropped fd what =
  match Proto.read_frame fd with
  | _ -> Alcotest.failf "%s answered" what
  | exception End_of_file -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()

let check_refused what = function
  | Proto.Error_ { tag; _ } -> Alcotest.(check string) what "proto" tag
  | _ -> Alcotest.failf "%s accepted" what

(* Frames the server must not act on: a protocol-7 follower's
   Hello and the Subscribe it sends next (opcode 17, removed in version 8);
   a request before any Hello; a version-8 raw Remove (opcode 9, removed
   in version 9) naming a member's oid. Each ends its session, no member
   is lost, and a session with a transaction open meanwhile commits
   afterwards. *)
let test_v7_subscribe_dropped () =
  with_server (fun env ->
      let c = Client.connect env.addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let member =
            Client.with_txn c (fun () ->
                Client.coll_insert c ~coll:"item" item_cls { id = 8; qty = 80; label = "member" })
          in
          Client.begin_ c;
          ignore (Client.coll_insert c ~coll:"item" item_cls { id = 7; qty = 70; label = "v7" });
          with_raw env (fun fd ->
              check_refused "v7 hello" (hello fd 7);
              send fd (opcode_frame 17 (fun w -> Tdb_pickle.Pickle.uint w 0; Tdb_pickle.Pickle.string w "genesis"));
              check_dropped fd "subscribe after a refused hello");
          with_raw env (fun fd ->
              check_refused "begin without hello" (ask fd Proto.Begin);
              check_dropped fd "a session without hello");
          with_raw env (fun fd ->
              (match hello fd Proto.version with Proto.Hello_ok _ -> () | _ -> Alcotest.fail "hello refused");
              send fd (opcode_frame 17 (fun w -> Tdb_pickle.Pickle.uint w 0; Tdb_pickle.Pickle.string w "genesis"));
              check_dropped fd "subscribe");
          with_raw env (fun fd ->
              (match hello fd Proto.version with Proto.Hello_ok _ -> () | _ -> Alcotest.fail "hello refused");
              (match ask fd Proto.Begin with Proto.Ok_unit -> () | _ -> Alcotest.fail "begin refused");
              send fd (opcode_frame 9 (fun w -> Tdb_pickle.Pickle.int w member));
              check_dropped fd "raw remove");
          Client.commit c;
          Client.with_txn c (fun () ->
              Alcotest.(check int) "concurrent session committed" 70 (qty c 7);
              Alcotest.(check (option int)) "member still found by key" (Some member)
                (Option.map fst (Client.coll_find c ~coll:"item" ~index:"id" Gkey.int 8 item_cls));
              Alcotest.(check int) "size unchanged" 2 (Client.coll_size c ~coll:"item"))))

(* One sample of every request and response kind. *)
let sample_requests =
  Proto.
    [
      Hello { r_magic = magic; r_version = version }; Begin; Commit { durable = true }; Abort;
      Coll_insert { coll = "item"; data = "\000packed" };
      Coll_find { coll = "item"; index = "id"; key = "\001k" };
      Coll_scan { coll = "item"; index = "id"; min = Some "a"; max = None; limit = 5 };
      Coll_mutate { coll = "item"; index = "id"; key = "k"; mutation = "bump"; arg = "\002" };
      Coll_size { coll = "item" }; Metrics; Bye; List_backups { after = 3 }; Fetch_backup { name = "backup-000001-full"; off = 5 };
    ]

let sample_responses =
  Proto.
    [
      Hello_ok { a_version = version }; Ok_unit; Ok_oid (-7); Ok_data "bytes"; Ok_found (Some (4, "obj"));
      Ok_list [ (1, "a"); (2, "") ]; Ok_int max_int; Ok_metrics sample_metrics;
      Error_ { tag = "proto"; msg = "refused" };
    ]

(* The opcodes a decoder knows: a one-byte frame carrying an unknown one
   raises [Proto_error]; a known one decodes or runs out of bytes. *)
let known_opcodes decode =
  List.filter
    (fun op ->
      match decode (String.make 1 (Char.chr op)) with
      | _ -> true
      | exception Tdb_pickle.Pickle.Error _ -> true
      | exception Proto.Proto_error _ -> false)
    (List.init 256 Fun.id)

let opcodes frames = List.sort_uniq Int.compare (List.map (fun f -> Char.code f.[0]) frames)

(* Every frame comes off an untrusted wire: each kind round-trips, and
   every truncation and every single-byte substitution of it must decode
   to a value or a typed error. *)
let test_frame_fuzz () =
  let fuzz decode frame =
    let decodes label bytes =
      match decode bytes with
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
  in
  let requests = List.map Proto.encode_request sample_requests in
  let responses = List.map Proto.encode_response sample_responses in
  Alcotest.(check (list int)) "a sample of every request kind" (known_opcodes Proto.decode_request) (opcodes requests);
  Alcotest.(check (list int)) "a sample of every response kind" (known_opcodes Proto.decode_response)
    (opcodes responses);
  List.iter2
    (fun req frame -> if Proto.decode_request frame <> req then Alcotest.fail "a request did not round-trip")
    sample_requests requests;
  List.iter2
    (fun resp frame -> if Proto.decode_response frame <> resp then Alcotest.fail "a response did not round-trip")
    sample_responses responses;
  List.iter (fuzz Proto.decode_request) requests;
  List.iter (fuzz Proto.decode_response) responses

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

(* A refused connect closes its socket: a replication follower retries a
   downed primary every poll interval and must not run out of
   descriptors. Counted through /proc, so skipped where there is none. *)
let test_refused_connect_keeps_no_fd () =
  if Sys.file_exists "/proc/self/fd" then begin
    let fds () = Array.length (Sys.readdir "/proc/self/fd") in
    (* a port nothing listens on: bind one, then give it back *)
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let port = match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> 0 in
    Unix.close s;
    let no_socket = Filename.concat (Filename.get_temp_dir_name ()) "tdb-test-no-such-socket" in
    let before = fds () in
    for _ = 1 to 64 do
      List.iter
        (fun addr ->
          match Client.connect addr with
          | c ->
              Client.close c;
              Alcotest.fail "connected where nothing listens"
          | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> ())
        [ Server.Tcp ("127.0.0.1", port); Server.Unix_path no_socket ]
    done;
    Alcotest.(check int) "descriptors after 128 refused connects" before (fds ())
  end

(* A server whose backup store reads [archive], and a client to it. *)
let with_archive_client (archive : Archival_store.t) f =
  let secret = Secret_store.of_seed "server-test" in
  let cs =
    Chunk_store.create ~config:chunk_cfg ~secret ~counter:(snd (One_way_counter.open_mem ()))
      (snd (Untrusted_store.open_mem ()))
  in
  let bs = Tdb_backup.Backup_store.create ~secret ~archive cs in
  let srv = Server.create ~backups:bs (Object_store.of_shard_store cs) (Server.Tcp ("127.0.0.1", 0)) in
  Server.start srv;
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let c = Client.connect (Server.Tcp ("127.0.0.1", Server.port srv)) in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c))

(* A read-only archive holding [streams] ((name, bytes) pairs). *)
let synthetic_archive (streams : (string * string) list) : Archival_store.t =
  { Archival_store.put = (fun ~name:_ _ -> ()); get = (fun ~name -> List.assoc_opt name streams);
    list = (fun () -> List.map fst streams); delete = (fun ~name:_ -> ()) }

(* An archive index too long for one frame still lists, a page at a time,
   and a listing above a position carries only the entries past it. The
   archive holds names only: no stream is fetched. *)
let test_index_longer_than_a_frame () =
  let module B = Tdb_backup.Backup_store in
  let n = 240_000 in
  let index =
    List.init n (fun i ->
        let id = i + 1 in
        (id, B.stream_name { B.id; kind = (if id = 1 then B.Full else B.Incremental i); seq = 0 }))
  in
  Alcotest.(check bool)
    "the whole index outgrows a frame" true
    (String.length (Proto.encode_response (Proto.Ok_list index)) > Proto.default_max_frame);
  with_archive_client (synthetic_archive (List.map (fun (_, name) -> (name, "")) index)) (fun c ->
      Alcotest.(check bool) "whole index, in id order" true (Client.list_backups c = index);
      Alcotest.(check (list int)) "above a position" [ n - 1; n ]
        (List.map fst (Client.list_backups ~after:(n - 2) c));
      Alcotest.(check (list int)) "above the newest" [] (List.map fst (Client.list_backups ~after:n c)))

(* A stream longer than a frame is fetched a slice at a time and arrives
   byte-identical; so does one of exactly a slice, whose last slice is
   empty. *)
let test_stream_longer_than_a_frame () =
  let module B = Tdb_backup.Backup_store in
  let name id = B.stream_name { B.id; kind = B.Full; seq = 0 } in
  let bytes n = String.init n (fun i -> Char.chr ((i + (i / 251)) land 0xff)) in
  let big = bytes (5 * 1024 * 1024) and exact = bytes Proto.fetch_slice in
  Alcotest.(check bool)
    "the stream outgrows a frame" true
    (String.length (Proto.encode_response (Proto.Ok_data big)) > Proto.default_max_frame);
  with_archive_client (synthetic_archive [ (name 1, big); (name 2, exact) ]) (fun c ->
      Alcotest.(check bool) "5 MiB stream, byte-identical" true (String.equal big (Client.fetch_backup c ~name:(name 1)));
      Alcotest.(check bool) "one-slice stream, byte-identical" true
        (String.equal exact (Client.fetch_backup c ~name:(name 2))))

(* An answer too large for a frame is a typed error: the session and its
   open transaction survive it. *)
let test_oversized_answer_refused () =
  with_server (fun env ->
      let c = Client.connect env.addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let label = String.make 1000 'l' in
          Client.with_txn ~durable:false c (fun () ->
              for id = 0 to 4999 do
                ignore (Client.coll_insert c ~coll:"item" item_cls { id; qty = id; label })
              done);
          Client.begin_ c;
          (match Client.coll_scan c ~coll:"item" ~index:"id" Gkey.int item_cls with
          | _ -> Alcotest.fail "a scan larger than a frame was answered"
          | exception Client.Server_error { tag = "too_large"; _ } -> ());
          Alcotest.(check int) "the next request, same transaction" 7 (qty c 7);
          Client.commit c))

let () =
  Alcotest.run "tdb_server"
    [
      ( "rpc",
        [
          Alcotest.test_case "typed objects through a collection" `Quick test_rpc_objects;
          Alcotest.test_case "collections + mutations" `Quick test_rpc_collections;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "disconnect releases locks" `Quick test_disconnect_releases_locks;
          Alcotest.test_case "idle timeout reaps session" `Slow test_idle_timeout;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "refused connect keeps no fd" `Quick test_refused_connect_keeps_no_fd;
        ] );
      ( "wire",
        [
          Alcotest.test_case "metrics round trip" `Quick test_metrics_roundtrip;
          Alcotest.test_case "frame prefixes and flips, every kind" `Quick test_frame_fuzz;
          Alcotest.test_case "v7 subscribe drops the session" `Quick test_v7_subscribe_dropped;
          Alcotest.test_case "oversized answer refused" `Quick test_oversized_answer_refused;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "8 concurrent clients, group commit" `Slow test_e2e_group_commit;
        ] );
      ( "archive",
        [
          Alcotest.test_case "no archive refused" `Quick test_no_archive_refused;
          Alcotest.test_case "remote point-in-time restore" `Quick test_remote_restore;
          Alcotest.test_case "index longer than a frame" `Quick test_index_longer_than_a_frame;
          Alcotest.test_case "stream longer than a frame" `Quick test_stream_longer_than_a_frame;
        ] );
    ]
