(** Multi-client TPC-B over the network service: N client threads drive a
    {!Tdb_server.Server} through the RPC client, so throughput-vs-clients
    can be measured with group commit on or off.

    The database lives in an in-memory untrusted store whose [sync] — and
    the one-way counter's [increment] — are given real wall-clock latency
    ([sync_ms]/[counter_ms]), emulating the paper's platform (a log force
    plus a counter bump per durable commit, Section 7.2) in a way that
    works across threads ({!Sim_disk}'s virtual clock is single-threaded
    by design). Without group commit every durable commit pays that
    latency under the store's state mutex, so adding clients cannot help;
    with group commit one barrier covers every session that committed in
    the window, and throughput scales until the barrier saturates.

    Each TPC-B read-modify-write travels as a server-side ["add"] mutation
    (one round trip, no lock-upgrade window); lock timeouts — the paper's
    deadlock breaker, surfaced as aborted transactions over the wire — are
    retried client-side. *)

open Tdb_platform
open Tdb_chunk
open Tdb_objstore
open Tdb_collection
open Tdb_server

type result = {
  clients : int;
  group_commit : bool;
  committed : int;  (** transactions committed across all clients *)
  retries : int;  (** lock-timeout retries *)
  elapsed : float;  (** wall-clock seconds of the drive phase *)
  tps : float;
  durable_requests : int;  (** durable commits requested by clients *)
  barriers : int;  (** sync + counter bumps actually paid during the drive *)
  counter : int64;  (** one-way counter at the end *)
  balance_ok : bool;  (** branch balances sum to the deltas applied *)
}

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "%d client%s, group commit %s: %d txns in %.2fs = %.0f tps (%d retries, %d durable requests, %d barriers)"
    r.clients
    (if r.clients > 1 then "s" else "")
    (if r.group_commit then "on" else "off")
    r.committed r.elapsed r.tps r.retries r.durable_requests r.barriers

let net_scale : Workload.scale =
  { Workload.accounts = 1_000; tellers = 100; branches = 10; transactions = 0; measured = 0;
    cache_bytes = 256 * 1024 }

let id_ix () : (Workload.record, int) Indexer.t =
  Indexer.make ~name:"id" ~key:Gkey.int ~extract:(fun (r : Workload.record) -> r.Workload.id)
    ~unique:true ~impl:Indexer.Hash ()

let hid_ix () : (Workload.history, int) Indexer.t =
  Indexer.make ~name:"id" ~key:Gkey.int ~extract:(fun (h : Workload.history) -> h.Workload.h_id)
    ~unique:false ~impl:Indexer.List ()

(* Wrap the platform with wall-clock latency: syncs cost [sync_ms],
   counter bumps [counter_ms]. [Thread.delay] releases the runtime lock,
   so other sessions keep running — which is the point. *)
let delayed_platform ~sync_ms ~counter_ms =
  let _, raw_store = Untrusted_store.open_mem () in
  let store =
    if sync_ms > 0. then
      Untrusted_store.interpose raw_store
        ~before:(fun op ->
          match op with
          | Untrusted_store.Op_sync -> Thread.delay (sync_ms /. 1000.)
          | Untrusted_store.Op_write _ | Untrusted_store.Op_set_size _ -> ())
    else raw_store
  in
  let _, raw_counter = One_way_counter.open_mem () in
  let counter =
    if counter_ms > 0. then
      {
        One_way_counter.read = raw_counter.One_way_counter.read;
        increment =
          (fun () ->
            Thread.delay (counter_ms /. 1000.);
            raw_counter.One_way_counter.increment ());
      }
    else raw_counter
  in
  (store, counter)

type setup = {
  os : Object_store.t;
  cs : Chunk_store.t;
  srv : Server.t;
  server_addr : Server.addr;
}

let setup_server ~security ~sync_ms ~counter_ms ~group_commit ~lock_timeout (scale : Workload.scale) :
    setup =
  let store, counter = delayed_platform ~sync_ms ~counter_ms in
  let secret = Secret_store.of_seed "tpcb-net" in
  let config = { Config.default with Config.security; checkpoint_every = 1_000_000 } in
  let cs = Chunk_store.create ~config ~secret ~counter store in
  let os =
    Object_store.of_chunk_store
      ~config:
        { Object_store.cache_budget = scale.Workload.cache_bytes; locking = true; lock_timeout }
      cs
  in
  (* build and populate the four tables locally, then checkpoint so the
     drive phase starts from a clean log *)
  let accounts, tellers, branches =
    Cstore.with_ctxn ~durable:false os (fun ct ->
        let accounts = Cstore.create_collection ct ~name:"account" ~schema:Workload.account_cls (id_ix ()) in
        let tellers = Cstore.create_collection ct ~name:"teller" ~schema:Workload.teller_cls (id_ix ()) in
        let branches = Cstore.create_collection ct ~name:"branch" ~schema:Workload.branch_cls (id_ix ()) in
        ignore (Cstore.create_collection ct ~name:"history" ~schema:Workload.history_cls (hid_ix ()));
        (accounts, tellers, branches))
  in
  let load coll n =
    Cstore.with_ctxn ~durable:false os (fun ct ->
        for id = 0 to n - 1 do
          ignore (Cstore.insert ct coll (Workload.make_record ~id ~balance:0))
        done)
  in
  load accounts scale.Workload.accounts;
  load tellers scale.Workload.tellers;
  load branches scale.Workload.branches;
  Chunk_store.checkpoint cs;
  let srv =
    Server.create
      ~config:{ Server.default_config with Server.group_commit }
      os (Server.Tcp ("127.0.0.1", 0))
  in
  let add (r : Workload.record) rd = r.Workload.balance <- r.Workload.balance + Tdb_pickle.Pickle.read_int rd in
  List.iter
    (fun (name, schema) ->
      Server.expose_collection srv ~name ~schema
        ~indexers:[ Indexer.Generic (id_ix ()) ]
        ~mutations:[ ("add", add) ] ())
    [ ("account", Workload.account_cls); ("teller", Workload.teller_cls); ("branch", Workload.branch_cls) ];
  Server.expose_collection srv ~name:"history" ~schema:Workload.history_cls
    ~indexers:[ Indexer.Generic (hid_ix ()) ]
    ();
  Server.start srv;
  { os; cs; srv; server_addr = Server.Tcp ("127.0.0.1", Server.port srv) }

(* One TPC-B transaction through the wire; retried on lock timeout (the
   server aborts the transaction before reporting, so a retry is a fresh
   transaction). Returns the number of retries it took. *)
let drive_txn (c : Client.t) (input : Workload.txn_input) ~(h_id : int) : int =
  let retries = ref 0 in
  let rec attempt () =
    match
      Client.begin_ c;
      let add coll cls id delta =
        ignore
          (Client.coll_mutate c ~coll ~index:"id" ~mutation:"add" Gkey.int id cls
             ~arg:(fun w -> Tdb_pickle.Pickle.int w delta))
      in
      add "account" Workload.account_cls input.Workload.account input.Workload.delta;
      add "teller" Workload.teller_cls input.Workload.teller input.Workload.delta;
      add "branch" Workload.branch_cls input.Workload.branch input.Workload.delta;
      ignore
        (Client.coll_insert c ~coll:"history" Workload.history_cls (Workload.make_history ~h_id ~input));
      Client.commit ~durable:true c
    with
    | () -> !retries
    | exception Client.Server_error { tag; msg = _ } when String.equal tag "lock_timeout" ->
        incr retries;
        attempt ()
  in
  attempt ()

(** Run [clients] concurrent client sessions, each committing
    [txns_per_client] TPC-B transactions durably, and report wall-clock
    throughput plus how many durable barriers the store actually paid. *)
let run ?(security = true) ?(sync_ms = 2.0) ?(counter_ms = 1.0) ?(scale = net_scale)
    ?(lock_timeout = 0.25) ~clients ~txns_per_client ~group_commit () : result =
  let s = setup_server ~security ~sync_ms ~counter_ms ~group_commit ~lock_timeout scale in
  let stats0 = Chunk_store.stats s.cs in
  let durable0 = stats0.Chunk_store.durable_commits in
  let retries = Array.make clients 0 in
  let deltas = Array.make clients 0 in
  let errors = Mutex.create () in
  let failure = ref None in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            match
              let c = Client.connect s.server_addr in
              let rng = Tdb_crypto.Drbg.create ~seed:(Printf.sprintf "net-client-%d" i) in
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  for j = 0 to txns_per_client - 1 do
                    let input = Workload.gen_txn rng scale in
                    let h_id = i + (j * clients) in
                    retries.(i) <- retries.(i) + drive_txn c input ~h_id;
                    deltas.(i) <- deltas.(i) + input.Workload.delta
                  done)
            with
            | () -> ()
            | exception e ->
                Mutex.lock errors;
                (match !failure with None -> failure := Some e | Some _ -> ());
                Mutex.unlock errors)
          ())
  in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  (match !failure with Some e -> raise e | None -> ());
  (* verification pass: branch balances must sum to the deltas applied *)
  let check = Client.connect s.server_addr in
  let balance_sum =
    Client.with_txn ~durable:false check (fun () ->
        List.fold_left
          (fun acc (_, r) -> acc + r.Workload.balance)
          0
          (Client.coll_scan check ~coll:"branch" ~index:"id" Gkey.int Workload.branch_cls))
  in
  let counter =
    match Tdb_chunk.Metrics.find (Client.metrics check) "store.counter" with
    | Some (Tdb_chunk.Metrics.Int n) -> Int64.of_int n
    | _ -> failwith "net driver: no store.counter metric"
  in
  Client.close check;
  Server.stop s.srv;
  let stats1 = Chunk_store.stats s.cs in
  let committed = clients * txns_per_client in
  {
    clients;
    group_commit;
    committed;
    retries = Array.fold_left ( + ) 0 retries;
    elapsed;
    tps = (if elapsed > 0. then float_of_int committed /. elapsed else 0.);
    durable_requests = committed;
    barriers = stats1.Chunk_store.durable_commits - durable0;
    counter;
    balance_ok = Int.equal balance_sum (Array.fold_left ( + ) 0 deltas);
  }
