(** TPC-B driver for TDB: the four tables are collection-store collections
    with a unique hash index on the 4-byte id (History uses a list index,
    {!Workload.hid_ix}: cheap append-only maintenance). *)

open Tdb_platform
open Tdb_chunk
open Tdb_objstore
open Tdb_collection

type t = {
  os : Object_store.t;
  cs : Chunk_store.t;
  store : Untrusted_store.t; (* unwrapped, for byte stats *)
  clock : Sim_disk.clock;
  scale : Workload.scale;
  accounts : Workload.record Cstore.collection;
  tellers : Workload.record Cstore.collection;
  branches : Workload.record Cstore.collection;
  history : Workload.history Cstore.collection;
  mutable next_history : int;
}

(** Build and populate a TPC-B database in an in-memory untrusted store
    whose I/O is charged to [clock] (see {!Sim_disk}). *)
let setup ?(security = true) ?(max_utilization = 0.6) ?(model = Sim_disk.paper_platform)
    (scale : Workload.scale) : t =
  let clock = Sim_disk.clock () in
  let raw_store = snd (Untrusted_store.open_mem ()) in
  let store = Sim_disk.wrap_store model clock raw_store in
  let counter = Sim_disk.wrap_counter model clock (snd (One_way_counter.open_mem ())) in
  let secret = Secret_store.of_seed "tpcb-device" in
  (* Benchmark configuration parity with the paper (Section 7.3): SHA-1
     hashing and a three-pass 64-bit-block cipher standing in for 3DES
     (Triple-XTEA: same block size and pass count; see DESIGN.md). Map
     checkpoints are idle-time work: {!idle_clean} ends in one, and the
     default residual bound is a backstop for runs without idle periods. *)
  let config =
    { Config.default with Config.security; max_utilization;
      (* two-level cache, one budget: the workload's cache allowance is
         split so the chunk store's verified-chunk cache (the paper's
         cleartext-chunk cache) holds the bulk of it, with a small object
         cache above for the pinned/unpickled working set. An equal-size
         second level under LRU inclusion would duplicate the first and
         capture nothing; total memory stays at BDB parity. *)
      chunk_cache_bytes = scale.Workload.cache_bytes * 3 / 4;
      cipher = Config.Triple_xtea; hash = Config.Sha1 }
  in
  let cs = Chunk_store.create ~config ~secret ~counter store in
  let os =
    Object_store.of_shard_store
      ~config:{ Object_store.default_config with Object_store.cache_budget = scale.Workload.cache_bytes / 4; locking = false }
      cs
  in
  let handles =
    Cstore.with_ctxn ~durable:false os (fun ct ->
        let accounts = Cstore.create_collection ct ~name:"account" ~schema:Workload.account_cls (Workload.id_ix ()) in
        let tellers = Cstore.create_collection ct ~name:"teller" ~schema:Workload.teller_cls (Workload.id_ix ()) in
        let branches = Cstore.create_collection ct ~name:"branch" ~schema:Workload.branch_cls (Workload.id_ix ()) in
        let history = Cstore.create_collection ct ~name:"history" ~schema:Workload.history_cls (Workload.hid_ix ()) in
        (accounts, tellers, branches, history))
  in
  let accounts, tellers, branches, history = handles in
  (* bulk load in batches to bound transaction size *)
  let load coll n =
    let batch = 2_000 in
    let loaded = ref 0 in
    while !loaded < n do
      let upto = min n (!loaded + batch) in
      Cstore.with_ctxn ~durable:false os (fun ct ->
          for id = !loaded to upto - 1 do
            ignore (Cstore.insert ct coll (Workload.make_record ~id ~balance:0))
          done);
      loaded := upto
    done
  in
  load accounts scale.Workload.accounts;
  load tellers scale.Workload.tellers;
  load branches scale.Workload.branches;
  Chunk_store.checkpoint cs;
  { os; cs; store = raw_store; clock; scale; accounts; tellers; branches; history; next_history = 0 }

let update_balance ct coll id delta =
  let it = Cstore.exact ct coll (Workload.id_ix ()) id in
  if Cstore.at_end it then begin
    Cstore.close it;
    failwith (Printf.sprintf "tpcb: missing record %d" id)
  end;
  let r = Cstore.write it in
  r.Workload.balance <- r.Workload.balance + delta;
  let balance = r.Workload.balance in
  Cstore.advance it;
  Cstore.close it;
  balance

(** One TPC-B transaction (durable commit). Returns the account balance, as
    the benchmark requires the read value. *)
let txn (t : t) (input : Workload.txn_input) : int =
  Cstore.with_ctxn ~durable:true t.os (fun ct ->
      let balance = update_balance ct t.accounts input.Workload.account input.Workload.delta in
      ignore (update_balance ct t.tellers input.Workload.teller input.Workload.delta);
      ignore (update_balance ct t.branches input.Workload.branch input.Workload.delta);
      let h = Workload.make_history ~h_id:t.next_history ~input in
      ignore (Cstore.insert ct t.history h);
      t.next_history <- t.next_history + 1;
      balance)

(** Idle-period maintenance (the paper defers cleaning to idle time). A
    bounded pass per idle window keeps each pause short, like a real
    device's background task. *)
let idle_clean (t : t) : unit = Chunk_store.clean ~max_segments:16 t.cs

let bytes_written (t : t) : int = (Untrusted_store.stats t.store).Untrusted_store.bytes_written
let store_writes (t : t) : int = (Untrusted_store.stats t.store).Untrusted_store.writes
let db_size (t : t) : int = Chunk_store.store_size t.cs
let live_bytes (t : t) : int = Chunk_store.live_bytes t.cs
let sim_time (t : t) : float = t.clock.Sim_disk.elapsed
let stats (t : t) = Chunk_store.stats t.cs
