(* Object store tests: typed storage, transactional semantics, locking,
   cache behaviour, persistence. Mirrors the paper's Section 4 guarantees. *)

open Tdb_platform
open Tdb_chunk
open Tdb_objstore

let cfg =
  { Config.default with Config.segment_size = 8192; initial_segments = 8;
    checkpoint_residual_bytes = 4 * 8192; anchor_slot_size = 2048 }

(* --- application classes (the paper's Meter/Profile example) --- *)

type meter = { mutable view_count : int; mutable print_count : int; good : string }

let meter_cls : meter Obj_class.t =
  Obj_class.define ~name:"test.meter"
    ~pickle:(fun w m ->
      Tdb_pickle.Pickle.int w m.view_count;
      Tdb_pickle.Pickle.int w m.print_count;
      Tdb_pickle.Pickle.string w m.good)
    ~unpickle:(fun ~version:_ r ->
      let view_count = Tdb_pickle.Pickle.read_int r in
      let print_count = Tdb_pickle.Pickle.read_int r in
      let good = Tdb_pickle.Pickle.read_string r in
      { view_count; print_count; good })
    ()

type profile = { mutable meters : Object_store.oid list }

let profile_cls : profile Obj_class.t =
  Obj_class.define ~name:"test.profile"
    ~pickle:(fun w p -> Tdb_pickle.Pickle.list w (fun w o -> Tdb_pickle.Pickle.uint w o) p.meters)
    ~unpickle:(fun ~version:_ r -> { meters = Tdb_pickle.Pickle.read_list r Tdb_pickle.Pickle.read_uint })
    ()

type env = { mem : Untrusted_store.Mem.handle; store : Untrusted_store.t; secret : Secret_store.t; ctr : One_way_counter.t }

let fresh_env () =
  let mem, store = Untrusted_store.open_mem () in
  let _, ctr = One_way_counter.open_mem () in
  { mem; store; secret = Secret_store.of_seed "objstore"; ctr }

let fresh ?(config = Object_store.default_config) env =
  Object_store.of_shard_store ~config (Chunk_store.create ~config:cfg ~secret:env.secret ~counter:env.ctr env.store)

let reopen ?(config = Object_store.default_config) env =
  Object_store.of_shard_store ~config
    (Chunk_store.open_existing ~config:cfg ~secret:env.secret ~counter:env.ctr env.store)

(* A [locks.*] counter from the store's metrics. *)
let lock_count os name =
  match Metrics.find (Object_store.metrics os) ("locks." ^ name) with Some (Metrics.Int n) -> n | _ -> -1

(* The verified-chunk cache's (hits, misses, evictions), one level below
   the object cache. *)
let chunk_cache_stats os =
  let st = Chunk_store.stats (Object_store.chunk_store os) in
  (st.Chunk_store.cache_hits, st.Chunk_store.cache_misses, st.Chunk_store.cache_evictions)

(* --- basic typed storage --- *)

let test_insert_open () =
  let os = fresh (fresh_env ()) in
  let x = Object_store.begin_ os in
  let oid = Object_store.insert x meter_cls { view_count = 1; print_count = 2; good = "song" } in
  Object_store.commit x;
  let x2 = Object_store.begin_ os in
  let m = Object_store.deref (Object_store.open_readonly x2 meter_cls oid) in
  Alcotest.(check int) "view" 1 m.view_count;
  Alcotest.(check string) "good" "song" m.good;
  Object_store.commit x2

let test_type_mismatch () =
  let os = fresh (fresh_env ()) in
  let x = Object_store.begin_ os in
  let oid = Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "g" } in
  Object_store.commit x;
  let x2 = Object_store.begin_ os in
  Alcotest.(check bool) "wrong class rejected" true
    (match Object_store.open_readonly x2 profile_cls oid with
    | exception Obj_class.Type_mismatch { expected = "test.profile"; actual = "test.meter" } -> true
    | _ -> false);
  Object_store.abort x2

let test_stale_ref () =
  let os = fresh (fresh_env ()) in
  let x = Object_store.begin_ os in
  let oid = Object_store.insert x meter_cls { view_count = 5; print_count = 0; good = "g" } in
  Object_store.commit x;
  let x2 = Object_store.begin_ os in
  let r = Object_store.open_readonly x2 meter_cls oid in
  Object_store.commit x2;
  Alcotest.(check bool) "stale after commit" true
    (match Object_store.deref r with exception Object_store.Stale_ref -> true | _ -> false);
  let x3 = Object_store.begin_ os in
  let r3 = Object_store.open_writable x3 meter_cls oid in
  Object_store.abort x3;
  Alcotest.(check bool) "stale after abort" true
    (match Object_store.deref r3 with exception Object_store.Stale_ref -> true | _ -> false)

let test_update_via_writable () =
  let env = fresh_env () in
  let os = fresh env in
  let x = Object_store.begin_ os in
  let oid = Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "movie" } in
  Object_store.commit x;
  (* the paper's increment-view-count transaction *)
  let x2 = Object_store.begin_ os in
  let m = Object_store.deref (Object_store.open_writable x2 meter_cls oid) in
  m.view_count <- m.view_count + 1;
  Object_store.commit x2;
  let os2 = reopen env in
  let x3 = Object_store.begin_ os2 in
  let m3 = Object_store.deref (Object_store.open_readonly x3 meter_cls oid) in
  Alcotest.(check int) "persisted increment" 1 m3.view_count;
  Object_store.abort x3

let test_abort_rolls_back () =
  let os = fresh (fresh_env ()) in
  let x = Object_store.begin_ os in
  let oid = Object_store.insert x meter_cls { view_count = 10; print_count = 0; good = "g" } in
  Object_store.commit x;
  let x2 = Object_store.begin_ os in
  let m = Object_store.deref (Object_store.open_writable x2 meter_cls oid) in
  m.view_count <- 999;
  Object_store.abort x2;
  let x3 = Object_store.begin_ os in
  let m3 = Object_store.deref (Object_store.open_readonly x3 meter_cls oid) in
  Alcotest.(check int) "dirty state evicted on abort" 10 m3.view_count;
  Object_store.abort x3

let test_abort_insert_gone () =
  let os = fresh (fresh_env ()) in
  let x = Object_store.begin_ os in
  let oid = Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "g" } in
  Object_store.abort x;
  let x2 = Object_store.begin_ os in
  Alcotest.(check bool) "inserted object gone" true
    (match Object_store.open_readonly x2 meter_cls oid with
    | exception Object_store.Unknown_object _ -> true
    | _ -> false);
  Object_store.abort x2

let test_remove () =
  let os = fresh (fresh_env ()) in
  let x = Object_store.begin_ os in
  let oid = Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "g" } in
  Object_store.commit x;
  let x2 = Object_store.begin_ os in
  Object_store.remove x2 oid;
  Alcotest.(check bool) "open after remove in txn" true
    (match Object_store.open_readonly x2 meter_cls oid with
    | exception Object_store.Removed_in_transaction _ -> true
    | _ -> false);
  Object_store.commit x2;
  let x3 = Object_store.begin_ os in
  Alcotest.(check bool) "gone after commit" true
    (match Object_store.open_readonly x3 meter_cls oid with
    | exception Object_store.Unknown_object _ -> true
    | _ -> false);
  Object_store.abort x3

let test_remove_rolled_back_by_abort () =
  let os = fresh (fresh_env ()) in
  let x = Object_store.begin_ os in
  let oid = Object_store.insert x meter_cls { view_count = 7; print_count = 0; good = "g" } in
  Object_store.commit x;
  let x2 = Object_store.begin_ os in
  Object_store.remove x2 oid;
  Object_store.abort x2;
  let x3 = Object_store.begin_ os in
  let m = Object_store.deref (Object_store.open_readonly x3 meter_cls oid) in
  Alcotest.(check int) "still there" 7 m.view_count;
  Object_store.abort x3

let unknown os oid =
  Object_store.with_txn os (fun x ->
      match Object_store.open_readonly x meter_cls oid with
      | exception Object_store.Unknown_object o -> Int.equal o oid
      | _ -> false)

(* An abort undoes an insert that the transaction removed again: the
   object is gone and its id is released. *)
let test_insert_remove_abort () =
  let os = fresh (fresh_env ()) in
  let x = Object_store.begin_ os in
  let oid = Object_store.insert x meter_cls { view_count = 5; print_count = 0; good = "g" } in
  Object_store.remove x oid;
  Object_store.abort x;
  Alcotest.(check bool) "inserted then removed object gone" true (unknown os oid);
  Alcotest.(check bool) "its id is released" true
    (match Chunk_store.deallocate (Object_store.chunk_store os) oid with exception Types.Not_allocated _ -> true | () -> false)

(* An abort undoes a write that the transaction removed again: the
   dirty value is not what a later transaction reads, or commits. *)
let test_write_remove_abort () =
  let env = fresh_env () in
  let os = fresh env in
  let oid = Object_store.with_txn os (fun x -> Object_store.insert x meter_cls { view_count = 1; print_count = 0; good = "g" }) in
  let x = Object_store.begin_ os in
  (Object_store.deref (Object_store.open_writable x meter_cls oid)).view_count <- 99;
  Object_store.remove x oid;
  Object_store.abort x;
  Object_store.with_txn os (fun x ->
      let m = Object_store.deref (Object_store.open_writable x meter_cls oid) in
      Alcotest.(check int) "committed value, not the aborted write" 1 m.view_count;
      m.print_count <- 1);
  Object_store.with_txn (reopen env) (fun x ->
      Alcotest.(check int) "committed value persisted" 1
        (Object_store.deref (Object_store.open_readonly x meter_cls oid)).view_count)

(* --- roots --- *)

let test_roots () =
  let env = fresh_env () in
  let os = fresh env in
  let x = Object_store.begin_ os in
  let p = Object_store.insert x profile_cls { meters = [] } in
  Object_store.set_root x "profile" (Some p);
  Alcotest.(check (option int)) "visible in txn" (Some p) (Object_store.root x "profile");
  Object_store.commit x;
  Alcotest.(check (option int)) "committed" (Some p) (Object_store.get_root os "profile");
  let os2 = reopen env in
  Alcotest.(check (option int)) "persistent" (Some p) (Object_store.get_root os2 "profile");
  (* clearing *)
  let x2 = Object_store.begin_ os2 in
  Object_store.set_root x2 "profile" None;
  Object_store.commit x2;
  Alcotest.(check (option int)) "cleared" None (Object_store.get_root os2 "profile")

let test_root_update_aborted () =
  let os = fresh (fresh_env ()) in
  let x = Object_store.begin_ os in
  let p = Object_store.insert x profile_cls { meters = [] } in
  Object_store.set_root x "r" (Some p);
  Object_store.abort x;
  Alcotest.(check (option int)) "abort discards root" None (Object_store.get_root os "r")

(* --- the paper's Figure 4 scenario --- *)

let test_paper_figure4 () =
  let env = fresh_env () in
  let os = fresh env in
  (* Add a new Meter to the Profile registered as root object. *)
  let t = Object_store.begin_ os in
  let profile_id = Object_store.insert t profile_cls { meters = [] } in
  Object_store.set_root t "root" (Some profile_id);
  let meter_id = Object_store.insert t meter_cls { view_count = 0; print_count = 0; good = "book" } in
  let profile = Object_store.deref (Object_store.open_writable t profile_cls profile_id) in
  profile.meters <- profile.meters @ [ meter_id ];
  Object_store.commit t;
  (* Increment view count for first good. *)
  let t2 = Object_store.begin_ os in
  let profile_id = Option.get (Object_store.root t2 "root") in
  let profile = Object_store.deref (Object_store.open_readonly t2 profile_cls profile_id) in
  let meter_id = List.hd profile.meters in
  let meter = Object_store.deref (Object_store.open_writable t2 meter_cls meter_id) in
  meter.view_count <- meter.view_count + 1;
  Object_store.commit t2;
  (* verify across restart *)
  let os2 = reopen env in
  let t3 = Object_store.begin_ os2 in
  let profile_id = Option.get (Object_store.root t3 "root") in
  let profile = Object_store.deref (Object_store.open_readonly t3 profile_cls profile_id) in
  let m = Object_store.deref (Object_store.open_readonly t3 meter_cls (List.hd profile.meters)) in
  Alcotest.(check int) "view count" 1 m.view_count;
  Object_store.abort t3

(* --- concurrency --- *)

let test_concurrent_increments () =
  let os = fresh (fresh_env ()) in
  let x = Object_store.begin_ os in
  let oid = Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "g" } in
  Object_store.commit x;
  let nthreads = 4 and per_thread = 25 in
  let threads =
    List.init nthreads (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to per_thread do
              let rec attempt () =
                let t = Object_store.begin_ os in
                match
                  let m = Object_store.deref (Object_store.open_writable t meter_cls oid) in
                  m.view_count <- m.view_count + 1;
                  Object_store.commit ~durable:false t
                with
                | () -> ()
                | exception Lock_manager.Lock_timeout _ ->
                    Object_store.abort t;
                    attempt ()
              in
              attempt ()
            done)
          ())
  in
  List.iter Thread.join threads;
  let t = Object_store.begin_ os in
  let m = Object_store.deref (Object_store.open_readonly t meter_cls oid) in
  Alcotest.(check int) "serializable increments" (nthreads * per_thread) m.view_count;
  Object_store.abort t

(* Multi-object transfers under contention: N threads move amounts
   between random pairs of accounts (two exclusive locks per txn, random
   order — plenty of deadlock opportunities for the timeout breaker).
   Money is conserved iff 2PL serialized every transfer and no lock was
   ever double-granted. Two modes:
   - [Barrier_thread]: nondurable transfers, while another thread runs
     durable barriers through the staged path;
   - [Durable]: durable transfers with no barrier thread, every sync
     delayed 1 ms, and another thread checkpointing and cleaning every
     few ms. The durable commits coalesce — a barrier covers at least two
     of them on average, which fails if the sync holds the state mutex —
     and a crash that loses every unsynced write loses no transfer. *)
type stress_mode = Barrier_thread | Durable

let transfer_stress mode =
  let durable = match mode with Barrier_thread -> false | Durable -> true in
  let config = cfg and secret = Secret_store.of_seed "objstore-stress" in
  let mem, raw = Untrusted_store.open_mem () in
  let ctr = snd (One_way_counter.open_mem ()) in
  let delay_sync = function
    | Untrusted_store.Op_sync -> if durable then Thread.delay 0.001
    | Untrusted_store.Op_write _ | Untrusted_store.Op_set_size _ -> ()
  in
  let cs =
    Chunk_store.create ~config ~secret ~counter:ctr (Untrusted_store.interpose ~before:delay_sync raw)
  in
  let os = Object_store.of_shard_store ~config:{ Object_store.default_config with lock_timeout = 0.1 } cs in
  let n_accounts = 8 and nthreads = 4 and per_thread = 40 and initial = 1000 in
  let oids =
    let x = Object_store.begin_ os in
    let oids =
      Array.init n_accounts (fun i ->
          Object_store.insert x meter_cls { view_count = initial; print_count = i; good = "acct" })
    in
    Object_store.commit x;
    oids
  in
  let durable0 = (Chunk_store.stats cs).Chunk_store.durable_commits in
  let deltas = Array.init nthreads (fun _ -> Array.make n_accounts 0) in
  let stop = ref false in
  let background =
    Thread.create
      (fun () ->
        while not !stop do
          if durable then begin
            Object_store.checkpoint os;
            Object_store.with_store os (fun cs -> Chunk_store.clean cs)
          end
          else Object_store.durable_barrier os;
          Thread.delay 0.002
        done)
      ()
  in
  let threads =
    List.init nthreads (fun ti ->
        Thread.create
          (fun () ->
            let rng = Tdb_crypto.Drbg.create ~seed:(Printf.sprintf "transfer-%d" ti) in
            for _ = 1 to per_thread do
              let a = Tdb_crypto.Drbg.int rng n_accounts in
              let b = (a + 1 + Tdb_crypto.Drbg.int rng (n_accounts - 1)) mod n_accounts in
              let amount = 1 + Tdb_crypto.Drbg.int rng 50 in
              let rec attempt () =
                let t = Object_store.begin_ os in
                match
                  let src = Object_store.deref (Object_store.open_writable t meter_cls oids.(a)) in
                  let dst = Object_store.deref (Object_store.open_writable t meter_cls oids.(b)) in
                  src.view_count <- src.view_count - amount;
                  dst.view_count <- dst.view_count + amount;
                  Object_store.commit ~durable t
                with
                | () ->
                    deltas.(ti).(a) <- deltas.(ti).(a) - amount;
                    deltas.(ti).(b) <- deltas.(ti).(b) + amount
                | exception Lock_manager.Lock_timeout _ ->
                    Object_store.abort t;
                    (* in the durable modes a jittered backoff keeps two
                       deadlocked transfers from colliding again on
                       retry; the barrier mode retries at once *)
                    if durable then Thread.delay (0.001 *. float_of_int (Tdb_crypto.Drbg.int rng 10));
                    attempt ()
              in
              attempt ()
            done)
          ())
  in
  List.iter Thread.join threads;
  stop := true;
  Thread.join background;
  let barriers = (Chunk_store.stats cs).Chunk_store.durable_commits - durable0 in
  Alcotest.(check int) "all locks released" 0 (Object_store.held_count os);
  let expected =
    List.init n_accounts (fun i -> Array.fold_left (fun acc d -> acc + d.(i)) initial deltas)
  in
  let balances os =
    let x = Object_store.begin_ os in
    let bs =
      List.map (fun oid -> (Object_store.deref (Object_store.open_readonly x meter_cls oid)).view_count) (Array.to_list oids)
    in
    Object_store.abort x;
    bs
  in
  let live = balances os in
  Alcotest.(check int) "money conserved" (n_accounts * initial) (List.fold_left ( + ) 0 live);
  Alcotest.(check (list int)) "every transfer applied" expected live;
  if durable then begin
    Alcotest.(check int64) "counter matches its claim" (Chunk_store.counter_value cs) (One_way_counter.read ctr);
    Alcotest.(check bool)
      (Printf.sprintf "coalesced: %d barriers for %d durable commits" barriers (nthreads * per_thread))
      true
      (2 * barriers <= nthreads * per_thread);
    (* every transfer was durable: a crash losing every unsynced write
       keeps them all *)
    Untrusted_store.Mem.crash_hard mem
  end;
  (* in the barrier mode, the barriers promoted the nondurable transfers
     (those after the last barrier roll back, atomically) *)
  let reopened = balances (Object_store.of_shard_store (Chunk_store.open_existing ~config ~secret ~counter:ctr raw)) in
  Alcotest.(check int) "conserved after reopen" (n_accounts * initial) (List.fold_left ( + ) 0 reopened);
  if durable then Alcotest.(check (list int)) "every transfer survives the crash" expected reopened

let test_concurrent_transfer_stress () = List.iter transfer_stress [ Barrier_thread; Durable ]

let test_deadlock_broken_by_timeout () =
  let config = { Object_store.default_config with Object_store.lock_timeout = 0.1 } in
  let os = fresh ~config (fresh_env ()) in
  let x = Object_store.begin_ os in
  let a = Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "a" } in
  let b = Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "b" } in
  Object_store.commit x;
  let timeouts = ref 0 in
  let mu = Mutex.create () in
  let worker (first, second) =
    let t = Object_store.begin_ os in
    match
      ignore (Object_store.open_writable t meter_cls first);
      Thread.delay 0.05;
      ignore (Object_store.open_writable t meter_cls second);
      Object_store.commit ~durable:false t
    with
    | () -> ()
    | exception Lock_manager.Lock_timeout _ ->
        Mutex.lock mu;
        incr timeouts;
        Mutex.unlock mu;
        Object_store.abort t
  in
  let t1 = Thread.create worker (a, b) in
  let t2 = Thread.create worker (b, a) in
  Thread.join t1;
  Thread.join t2;
  Alcotest.(check bool) "at least one victim" true (!timeouts >= 1)

let test_shared_locks_concurrent_reads () =
  let os = fresh (fresh_env ()) in
  let x = Object_store.begin_ os in
  let oid = Object_store.insert x meter_cls { view_count = 3; print_count = 0; good = "g" } in
  Object_store.commit x;
  (* two transactions hold shared locks simultaneously *)
  let t1 = Object_store.begin_ os in
  let t2 = Object_store.begin_ os in
  let m1 = Object_store.deref (Object_store.open_readonly t1 meter_cls oid) in
  let m2 = Object_store.deref (Object_store.open_readonly t2 meter_cls oid) in
  Alcotest.(check int) "t1 reads" 3 m1.view_count;
  Alcotest.(check int) "t2 reads" 3 m2.view_count;
  Object_store.commit t1;
  Object_store.commit t2

let test_writer_blocks_reader () =
  let config = { Object_store.default_config with Object_store.lock_timeout = 0.05 } in
  let os = fresh ~config (fresh_env ()) in
  let x = Object_store.begin_ os in
  let oid = Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "g" } in
  Object_store.commit x;
  let t1 = Object_store.begin_ os in
  ignore (Object_store.open_writable t1 meter_cls oid);
  let t2 = Object_store.begin_ os in
  Alcotest.(check bool) "reader times out" true
    (match Object_store.open_readonly t2 meter_cls oid with
    | exception Lock_manager.Lock_timeout _ -> true
    | _ -> false);
  Object_store.abort t2;
  Object_store.commit t1;
  Alcotest.(check (list int)) "acquired, waits, timeouts" [ 2; 1; 1 ]
    (List.map (lock_count os) [ "acquired"; "waits"; "timeouts" ])

(* A reader blocked behind a writer that changed the object in place. The
   writer's lock word lives on the entry it dirtied; when it aborts, that
   entry leaves the cache, so the reader must re-resolve the oid after its
   wake and read the committed value, never the dropped entry's. *)
let blocked_reader ~writer_commits =
  let config = { Object_store.default_config with Object_store.lock_timeout = 10.0 } in
  let os = fresh ~config (fresh_env ()) in
  let oid =
    Object_store.with_txn os (fun x -> Object_store.insert x meter_cls { view_count = 1; print_count = 0; good = "h" })
  in
  let t1 = Object_store.begin_ os in
  (Object_store.deref (Object_store.open_writable t1 meter_cls oid)).view_count <- 2;
  let read = ref (-1) in
  let reader =
    Thread.create
      (fun () ->
        Object_store.with_txn os (fun t2 ->
            read := (Object_store.deref (Object_store.open_readonly t2 meter_cls oid)).view_count))
      ()
  in
  (* the reader is parked once it has counted its wait *)
  let rec parked tries =
    if lock_count os "waits" < 1 then
      if tries = 0 then Alcotest.fail "the reader never waited"
      else begin
        Thread.delay 0.001;
        parked (tries - 1)
      end
  in
  parked 5000;
  Alcotest.(check int) "reader still blocked" (-1) !read;
  if writer_commits then Object_store.commit t1 else Object_store.abort t1;
  Thread.join reader;
  Alcotest.(check int) "value the reader saw" (if writer_commits then 2 else 1) !read;
  Alcotest.(check (list int)) "one wait, no timeout, nothing held" [ 1; 0; 0 ]
    [ lock_count os "waits"; lock_count os "timeouts"; Object_store.held_count os ]

let test_blocked_reader_after_abort () = blocked_reader ~writer_commits:false
let test_blocked_reader_after_commit () = blocked_reader ~writer_commits:true

let test_locking_disabled () =
  let config = { Object_store.default_config with Object_store.locking = false } in
  let os = fresh ~config (fresh_env ()) in
  let x = Object_store.begin_ os in
  let oid = Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "g" } in
  Object_store.commit x;
  (* with locking off, overlapping opens do not block *)
  let t1 = Object_store.begin_ os in
  ignore (Object_store.open_writable t1 meter_cls oid);
  let t2 = Object_store.begin_ os in
  ignore (Object_store.open_readonly t2 meter_cls oid);
  Object_store.commit t1;
  Object_store.abort t2

(* --- one durable point in flight --- *)

(* A sync hook that parks the first sync after [armed] is set until
   [released]: it holds a staged barrier inside its sync window, outside
   the state mutex, for as long as the test needs. *)
type park = { pm : Mutex.t; pc : Condition.t; mutable armed : bool; mutable parked : bool; mutable released : bool }

let park_hook p = function
  | Untrusted_store.Op_sync ->
      Mutex.lock p.pm;
      if p.armed then begin
        p.armed <- false;
        p.parked <- true;
        while not p.released do
          Condition.wait p.pc p.pm
        done
      end;
      Mutex.unlock p.pm
  | Untrusted_store.Op_write _ | Untrusted_store.Op_set_size _ -> ()

let with_park p f =
  Mutex.lock p.pm;
  let v = f () in
  Mutex.unlock p.pm;
  v

(* Run [f] on its own thread. *)
let spawn f =
  let res = Atomic.make None in
  let th = Thread.create (fun () -> Atomic.set res (Some (try Ok (f ()) with e -> Error e))) () in
  (th, res)

let finished (_, res) = Option.is_some (Atomic.get res)

let join (th, res) =
  Thread.join th;
  match Atomic.get res with Some r -> r | None -> Alcotest.fail "joined thread left no result"

(* Poll [cond] for up to [secs]; its final value. *)
let wait_for ?(secs = 5.0) cond =
  let deadline = Unix.gettimeofday () +. secs in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.002
  done;
  cond ()

(* While one thread's barrier is parked in its sync, outside the state
   mutex: a durable commit and a checkpoint wait for it, and a nondurable
   commit lands. Once released, every waiter finishes cleanly, the
   hardware counter equals what the store claims, and the database
   reopens with every commit. With [~leader:true] the parked barrier is a
   durable commit carrying its own bump of [a], and a durable read-only
   transaction that read that bump waits for it too. *)
let check_barrier_window ?(leader = false) () =
  let park = { pm = Mutex.create (); pc = Condition.create (); armed = false; parked = false; released = false } in
  let raw = snd (Untrusted_store.open_mem ()) and ctr = snd (One_way_counter.open_mem ()) in
  let secret = Secret_store.of_seed "objstore-window" and config = cfg in
  let cs = Chunk_store.create ~config ~secret ~counter:ctr (Untrusted_store.interpose ~before:(park_hook park) raw) in
  let os = Object_store.of_shard_store ~config:{ Object_store.default_config with lock_timeout = 10.0 } cs in
  let x = Object_store.begin_ os in
  let insert () = Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "w" } in
  let a = insert () and b = insert () in
  Object_store.commit x;
  let bump ?durable oids () =
    Object_store.with_txn ?durable os (fun x ->
        List.iter
          (fun oid ->
            let m = Object_store.deref (Object_store.open_writable x meter_cls oid) in
            m.view_count <- m.view_count + 1)
          oids)
  in
  (* something for the barrier to promote, or for the leader to carry *)
  if not leader then bump ~durable:false [ a ] ();
  with_park park (fun () -> park.armed <- true);
  let barrier = spawn (if leader then bump [ a ] else fun () -> Object_store.durable_barrier os) in
  Alcotest.(check bool) "barrier parked in its sync" true (wait_for (fun () -> with_park park (fun () -> park.parked)));
  let reader =
    if leader then
      [ spawn (fun () -> Object_store.with_txn os (fun x -> ignore (Object_store.open_readonly x meter_cls a))) ]
    else []
  in
  let durable = spawn (bump [ b ]) in
  let checkpoint = spawn (fun () -> Object_store.checkpoint os) in
  let single = spawn (bump ~durable:false [ a ]) in
  Alcotest.(check bool) "nondurable commit lands in the window" true (wait_for (fun () -> finished single));
  Thread.delay 0.05;
  Alcotest.(check bool) "durable commit waits" false (finished durable);
  Alcotest.(check bool) "checkpoint waits" false (finished checkpoint);
  List.iter (fun j -> Alcotest.(check bool) "read-only durable commit waits" false (finished j)) reader;
  Alcotest.(check bool) "barrier still parked" false (finished barrier);
  with_park park (fun () ->
      park.released <- true;
      Condition.broadcast park.pc);
  List.iter
    (fun (what, j) -> match join j with Ok () -> () | Error e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e))
    ([ ("barrier", barrier); ("durable commit", durable); ("checkpoint", checkpoint); ("nondurable commit", single) ]
    @ List.map (fun j -> ("read-only durable commit", j)) reader);
  Alcotest.(check int64) "counter matches its claim" (Chunk_store.counter_value cs) (One_way_counter.read ctr);
  Object_store.close os;
  let os2 = Object_store.of_shard_store (Chunk_store.open_existing ~config ~secret ~counter:ctr raw) in
  let x2 = Object_store.begin_ os2 in
  let count oid = (Object_store.deref (Object_store.open_readonly x2 meter_cls oid)).view_count in
  Alcotest.(check (list int)) "every commit survives reopen" [ 2; 1 ] (List.map count [ a; b ]);
  Object_store.abort x2

let test_barrier_window_w1 () = check_barrier_window ()
let test_barrier_window_leader () = check_barrier_window ~leader:true ()

exception Sync_failed

(* A sync that raises inside a leader's barrier poisons group commit. The
   leader gets the exception, and so do a durable commit that landed in
   the window and every later durable point; the leader's insert landed
   before the sync and stays readable, even after a later commit (a sync
   failure never reaches the commit's abort path, which would release
   the insert's id). *)
let test_failed_sync_poisons () =
  let park = { pm = Mutex.create (); pc = Condition.create (); armed = false; parked = false; released = false } in
  let hook = function
    | Untrusted_store.Op_sync as op ->
        let failing = with_park park (fun () -> park.armed) in
        park_hook park op;
        if failing then raise Sync_failed
    | op -> park_hook park op
  in
  let env = fresh_env () in
  let cs = Chunk_store.create ~config:cfg ~secret:env.secret ~counter:env.ctr (Untrusted_store.interpose ~before:hook env.store) in
  let os = Object_store.of_shard_store ~config:{ Object_store.default_config with lock_timeout = 10.0 } cs in
  let b = Object_store.with_txn os (fun x -> Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "b" }) in
  let bump ?durable () =
    Object_store.with_txn ?durable os (fun x ->
        let m = Object_store.deref (Object_store.open_writable x meter_cls b) in
        m.view_count <- m.view_count + 1)
  in
  let count oid =
    Object_store.with_txn ~durable:false os (fun x ->
        (Object_store.deref (Object_store.open_readonly x meter_cls oid)).view_count)
  in
  let is_sync_failed = function Error Sync_failed -> true | Ok () | Error _ -> false in
  let raises_sync_failed f = match f () with () -> false | exception Sync_failed -> true in
  with_park park (fun () -> park.armed <- true);
  let inserted = Atomic.make None in
  let leader =
    spawn (fun () ->
        Object_store.with_txn os (fun x ->
            Atomic.set inserted (Some (Object_store.insert x meter_cls { view_count = 7; print_count = 0; good = "a" }))))
  in
  let release () =
    with_park park (fun () ->
        park.released <- true;
        Condition.broadcast park.pc)
  in
  Fun.protect ~finally:release (fun () ->
      Alcotest.(check bool) "leader parked in its sync" true (wait_for (fun () -> with_park park (fun () -> park.parked)));
      let waiter = spawn (fun () -> bump ()) in
      (* reads run while the leader is parked: poll until the waiter's
         write shows *)
      let reader = spawn (fun () -> wait_for (fun () -> Int.equal (count b) 1)) in
      Alcotest.(check bool) "waiter's commit lands in the window" true
        (wait_for (fun () -> finished reader) && match join reader with Ok landed -> landed | Error _ -> false);
      Alcotest.(check bool) "waiter waits for a barrier" false (finished waiter);
      release ();
      Alcotest.(check bool) "leader gets the exception" true (is_sync_failed (join leader));
      Alcotest.(check bool) "waiter gets the same exception" true (is_sync_failed (join waiter)));
  Alcotest.(check bool) "a later durable commit raises it" true (raises_sync_failed (fun () -> bump ()));
  Alcotest.(check bool) "a later barrier raises it" true (raises_sync_failed (fun () -> Object_store.durable_barrier os));
  bump ~durable:false ();
  Alcotest.(check int) "nondurable commits still land" 2 (count b);
  match Atomic.get inserted with
  | None -> Alcotest.fail "leader inserted nothing"
  | Some a -> Alcotest.(check int) "leader's insert still readable" 7 (count a)

(* The chunk layer refuses a second durable point: a durable commit
   between [barrier_begin] and [barrier_finish] would queue a second
   counter increment behind the barrier's. *)
let test_durable_commit_in_barrier_refused () =
  let env = fresh_env () in
  let cs = Chunk_store.create ~config:cfg ~secret:env.secret ~counter:env.ctr env.store in
  let cid = Chunk_store.allocate cs in
  Chunk_store.write cs cid "v1";
  Chunk_store.commit ~durable:false cs;
  let tok = Chunk_store.barrier_begin cs in
  Chunk_store.write cs cid "v2";
  Alcotest.(check bool) "durable commit refused" true
    (match Chunk_store.commit ~durable:true cs with exception Invalid_argument _ -> true | () -> false);
  Alcotest.(check string) "batch untouched" "v2" (Chunk_store.read cs cid);
  Chunk_store.abort_batch cs;
  Chunk_store.barrier_sync cs tok;
  Chunk_store.barrier_finish cs tok;
  Chunk_store.write cs cid "v3";
  Chunk_store.commit ~durable:true cs;
  Alcotest.(check int64) "counter matches its claim" (Chunk_store.counter_value cs) (One_way_counter.read env.ctr);
  Chunk_store.close cs;
  let cs2 = Chunk_store.open_existing ~config:cfg ~secret:env.secret ~counter:env.ctr env.store in
  Alcotest.(check string) "reopens" "v3" (Chunk_store.read cs2 cid)

(* --- cache --- *)

let test_cache_eviction_and_reload () =
  let config = { Object_store.default_config with Object_store.cache_budget = 512 } in
  let env = fresh_env () in
  let os = fresh ~config env in
  let x = Object_store.begin_ os in
  let oids =
    List.init 50 (fun i -> Object_store.insert x meter_cls { view_count = i; print_count = 0; good = String.make 40 'g' })
  in
  Object_store.commit x;
  (* read them all back: far more data than the budget, so eviction + reload
     must work *)
  let t = Object_store.begin_ os in
  List.iteri
    (fun i oid ->
      let m = Object_store.deref (Object_store.open_readonly t meter_cls oid) in
      Alcotest.(check int) "value" i m.view_count)
    oids;
  Object_store.abort t;
  let _, misses, evictions = Object_store.cache_stats os in
  Alcotest.(check bool) "evictions happened" true (evictions > 0);
  Alcotest.(check bool) "misses happened" true (misses > 0)

(* An object alone over the cache budget: the put that loads it must not
   evict it, or the transaction pins an entry the cache no longer holds,
   a re-open unpickles a stale copy and a second open_writable replaces
   the write-set entry, losing the first mutation. *)
let test_reopen_under_pressure () =
  let config = { Object_store.default_config with Object_store.cache_budget = 100 } in
  let os = fresh ~config (fresh_env ()) in
  let oid =
    Object_store.with_txn os (fun x ->
        Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = String.make 200 'g' })
  in
  let x = Object_store.begin_ os in
  let w1 = Object_store.deref (Object_store.open_writable x meter_cls oid) in
  w1.view_count <- 1;
  let r = Object_store.deref (Object_store.open_readonly x meter_cls oid) in
  Alcotest.(check int) "re-open sees the mutation" 1 r.view_count;
  let w2 = Object_store.deref (Object_store.open_writable x meter_cls oid) in
  w2.print_count <- 1;
  Alcotest.(check bool) "one physical value" true (w1 == r && w1 == w2);
  Object_store.commit x;
  let m =
    Object_store.with_txn os (fun x -> Object_store.deref (Object_store.open_readonly x meter_cls oid))
  in
  Alcotest.(check (pair int int)) "both mutations committed" (1, 1) (m.view_count, m.print_count)

let test_cache_hit_no_io () =
  let env = fresh_env () in
  let os = fresh env in
  let x = Object_store.begin_ os in
  let oid = Object_store.insert x meter_cls { view_count = 42; print_count = 0; good = "g" } in
  Object_store.commit x;
  let t = Object_store.begin_ os in
  ignore (Object_store.deref (Object_store.open_readonly t meter_cls oid));
  Object_store.commit t;
  let reads_before = (Untrusted_store.stats env.store).Untrusted_store.reads in
  let t2 = Object_store.begin_ os in
  ignore (Object_store.deref (Object_store.open_readonly t2 meter_cls oid));
  Object_store.commit t2;
  let reads_after = (Untrusted_store.stats env.store).Untrusted_store.reads in
  Alcotest.(check int) "cached read does no store I/O" reads_before reads_after

(* Two-level cache: when the object cache is too small to hold the working
   set, re-reads fall through to the chunk store — and hit its
   verified-chunk cache instead of paying fetch + decrypt + verify. *)
let test_two_level_cache () =
  let config = { Object_store.default_config with Object_store.cache_budget = 500 } in
  let env = fresh_env () in
  let os = fresh ~config env in
  let x = Object_store.begin_ os in
  let oids =
    List.init 50 (fun i -> Object_store.insert x meter_cls { view_count = i; print_count = 0; good = String.make 40 'g' })
  in
  Object_store.commit x;
  let read_all () =
    let t = Object_store.begin_ os in
    List.iteri
      (fun i oid ->
        let m = Object_store.deref (Object_store.open_readonly t meter_cls oid) in
        Alcotest.(check int) "value" i m.view_count)
      oids;
    Object_store.abort t
  in
  read_all ();
  read_all ();
  let _, obj_misses, _ = Object_store.cache_stats os in
  let chunk_hits, _, _ = chunk_cache_stats os in
  Alcotest.(check bool) "object cache thrashes" true (obj_misses > 0);
  Alcotest.(check bool) "chunk cache absorbs the fall-through" true (chunk_hits > 0);
  (* disabling the lower tier turns the same traffic into pure misses *)
  Chunk_store.set_cache_budget (Object_store.chunk_store os) 0;
  let hits0, _, _ = chunk_cache_stats os in
  read_all ();
  let hits1, misses1, _ = chunk_cache_stats os in
  Alcotest.(check int) "no hits with cache off" hits0 hits1;
  Alcotest.(check bool) "misses counted" true (misses1 > 0)

(* An object-store commit leaves its bytes to the object cache (and the
   catalog to [roots]): it writes no chunk-cache entry for the oids it
   wrote, and drops the older version it replaces. Probed through the
   chunk store: a committed chunk's first read misses and caches it, so
   the next one hits. *)
let test_commit_keeps_no_chunk_copy () =
  let os = fresh (fresh_env ()) in
  let cs = Object_store.chunk_store os in
  let hits () = match chunk_cache_stats os with h, _, _ -> h in
  let hit cid =
    let h = hits () in
    ignore (Chunk_store.read cs cid);
    hits () > h
  in
  let resident () = Chunk_store.cache_resident cs in
  let r0 = resident () in
  let a, b =
    Object_store.with_txn os (fun x ->
        let a = Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "a" } in
        Object_store.set_root x "a" (Some a);
        (a, Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "b" }))
  in
  Alcotest.(check int) "insert commit caches nothing" r0 (resident ());
  let catalog = 1 (* the object store's reserved catalog chunk *) in
  Alcotest.(check (list bool)) "objects and catalog miss, then hit" [ false; true; false; false; true ]
    (List.map hit [ a; a; b; catalog; catalog ]);
  let bump v = Object_store.with_txn os (fun x -> (Object_store.deref (Object_store.open_writable x meter_cls a)).view_count <- v) in
  let r1 = resident () in
  bump 1;
  Alcotest.(check int) "update drops the older version" (r1 - 1) (resident ());
  Alcotest.(check (list bool)) "updated object misses, then hits" [ false; true ] (List.map hit [ a; a ]);
  Object_store.with_txn ~durable:false os (fun x -> Object_store.set_root x "b" (Some b));
  Alcotest.(check bool) "catalog update drops its older version" false (hit catalog);
  (* an abort and a failed commit stage nothing: a's cached copy stays *)
  let x = Object_store.begin_ os in
  (Object_store.deref (Object_store.open_writable x meter_cls a)).view_count <- 99;
  Object_store.abort x;
  Alcotest.(check bool) "abort keeps the cached copy" true (hit a);
  let too_large =
    match
      Object_store.with_txn os (fun x ->
          (Object_store.deref (Object_store.open_writable x meter_cls a)).view_count <- 98;
          ignore (Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = String.make 100_000 'x' }))
    with
    | () -> false
    | exception Types.Chunk_too_large _ -> true
  in
  Alcotest.(check bool) "commit fails" true too_large;
  Alcotest.(check bool) "failed commit keeps the cached copy" true (hit a);
  let r2 = resident () in
  Object_store.with_txn os (fun x -> Object_store.remove x a);
  Alcotest.(check int) "remove drops the cached copy" (r2 - 1) (resident ());
  Alcotest.(check bool) "removed chunk is gone" true
    (match Chunk_store.read cs a with _ -> false | exception Types.Not_written _ -> true)

(* The same commits, aborts, failed commit, and a removed id that a
   chunk-level restore (a replication ingest) writes again, under an
   object cache too small to keep any object: every re-open reads the
   chunk store, and must see the committed value. *)
let test_tiny_object_cache_reads_committed () =
  let os = fresh ~config:{ Object_store.default_config with Object_store.cache_budget = 1 } (fresh_env ()) in
  let meter v = { view_count = v; print_count = 0; good = "g" } in
  let view oid = Object_store.with_txn os (fun x -> (Object_store.deref (Object_store.open_readonly x meter_cls oid)).view_count) in
  let set oid v = Object_store.with_txn os (fun x -> (Object_store.deref (Object_store.open_writable x meter_cls oid)).view_count <- v) in
  let a, b = Object_store.with_txn os (fun x -> (Object_store.insert x meter_cls (meter 1), Object_store.insert x meter_cls (meter 2))) in
  Alcotest.(check (list int)) "inserted" [ 1; 2 ] (List.map view [ a; b ]);
  set a 10;
  set a 11;
  Alcotest.(check int) "committed twice" 11 (view a);
  let x = Object_store.begin_ os in
  (Object_store.deref (Object_store.open_writable x meter_cls a)).view_count <- 99;
  Object_store.abort x;
  Alcotest.(check int) "aborted" 11 (view a);
  (match
     Object_store.with_txn os (fun x ->
         (Object_store.deref (Object_store.open_writable x meter_cls b)).view_count <- 98;
         ignore (Object_store.insert x meter_cls { (meter 0) with good = String.make 100_000 'x' }))
   with
  | () -> Alcotest.fail "oversized insert committed"
  | exception Types.Chunk_too_large _ -> ());
  Alcotest.(check int) "failed commit" 2 (view b);
  Object_store.with_txn os (fun x -> Object_store.remove x a);
  Alcotest.(check bool) "removed" true
    (match view a with _ -> false | exception Object_store.Unknown_object _ -> true);
  let reused =
    Object_store.ingest os (fun cs ->
        Chunk_store.restore_chunk cs a (Obj_class.pickle_value meter_cls (meter 7));
        Chunk_store.commit cs)
  in
  Alcotest.(check bool) "ingested" true (Option.is_some reused);
  Alcotest.(check (list int)) "reused id, and its neighbour" [ 7; 2 ] (List.map view [ a; b ]);
  set a 8;
  Alcotest.(check int) "reused id updated" 8 (view a);
  let _, _, evictions = Object_store.cache_stats os in
  Alcotest.(check bool) "objects left the object cache" true (evictions > 0)

(* --- persistence of many objects + crash --- *)

let test_crash_recovery_objects () =
  let env = fresh_env () in
  let os = fresh env in
  let x = Object_store.begin_ os in
  let oids = List.init 20 (fun i -> Object_store.insert x meter_cls { view_count = i; print_count = 0; good = "g" }) in
  Object_store.commit x;
  (* uncommitted transaction lost in crash *)
  let x2 = Object_store.begin_ os in
  let m = Object_store.deref (Object_store.open_writable x2 meter_cls (List.hd oids)) in
  m.view_count <- 12345;
  Untrusted_store.Mem.crash_hard env.mem;
  let os2 = reopen env in
  let t = Object_store.begin_ os2 in
  List.iteri
    (fun i oid ->
      let m = Object_store.deref (Object_store.open_readonly t meter_cls oid) in
      Alcotest.(check int) "committed state" i m.view_count)
    oids;
  Object_store.abort t

(* --- schema evolution: version-aware unpickling --- *)

type profile_v2 = { mutable meters2 : Object_store.oid list; mutable plan : string }

let test_schema_evolution () =
  let env = fresh_env () in
  (* write data under the v1 class *)
  let os = fresh env in
  let oid =
    Object_store.with_txn os (fun t -> Object_store.insert t profile_cls { meters = [ 42; 43 ] })
  in
  Object_store.close os;
  (* the application is upgraded: same class name, version 2 adds a field;
     unpickle branches on the stored version *)
  Obj_class.undefine "test.profile";
  let v2_cls : profile_v2 Obj_class.t =
    let module P = Tdb_pickle.Pickle in
    Obj_class.define ~name:"test.profile" ~version:2
      ~pickle:(fun w p ->
        P.list w (fun w o -> P.uint w o) p.meters2;
        P.string w p.plan)
      ~unpickle:(fun ~version r ->
        let meters2 = P.read_list r P.read_uint in
        let plan = if version >= 2 then P.read_string r else "legacy" in
        { meters2; plan })
      ()
  in
  let os2 = reopen env in
  let t = Object_store.begin_ os2 in
  let p = Object_store.deref (Object_store.open_writable t v2_cls oid) in
  Alcotest.(check (list int)) "v1 data readable" [ 42; 43 ] p.meters2;
  Alcotest.(check string) "v1 default" "legacy" p.plan;
  p.plan <- "premium";
  Object_store.commit t;
  (* now stored as v2 *)
  let t2 = Object_store.begin_ os2 in
  let p2 = Object_store.deref (Object_store.open_readonly t2 v2_cls oid) in
  Alcotest.(check string) "v2 roundtrip" "premium" p2.plan;
  Object_store.abort t2;
  (* restore the original class for other tests *)
  Obj_class.undefine "test.profile";
  ignore (Obj_class.define ~name:"test.profile"
    ~pickle:(fun w (p : profile) -> Tdb_pickle.Pickle.list w (fun w o -> Tdb_pickle.Pickle.uint w o) p.meters)
    ~unpickle:(fun ~version:_ r -> ({ meters = Tdb_pickle.Pickle.read_list r Tdb_pickle.Pickle.read_uint } : profile))
    () : profile Obj_class.t)

(* --- re-opens and lock bookkeeping --- *)

(* A re-open of an object the transaction already holds at the needed mode
   is answered by the transaction: the same physical value, and no cache
   probe. *)
let test_reopen_shared_after_exclusive () =
  let os = fresh (fresh_env ()) in
  let oid =
    Object_store.with_txn os (fun x -> Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "r" })
  in
  let x = Object_store.begin_ os in
  let w = Object_store.deref (Object_store.open_writable x meter_cls oid) in
  w.view_count <- 9;
  let probes () =
    let hits, misses, _ = Object_store.cache_stats os in
    hits + misses
  in
  let before = probes () in
  let r = Object_store.deref (Object_store.open_readonly x meter_cls oid) in
  let w2 = Object_store.deref (Object_store.open_writable x meter_cls oid) in
  Alcotest.(check int) "re-opens probe no cache" before (probes ());
  Alcotest.(check bool) "one physical value" true (r == w && w2 == w);
  Alcotest.(check int) "shared re-open sees the mutation" 9 r.view_count;
  Object_store.commit x;
  Alcotest.(check int) "no lock held" 0 (Object_store.held_count os)

(* A shared-to-exclusive upgrade still asks the lock manager: it waits
   for another shared holder and times out. *)
let test_reopen_upgrade_blocks () =
  let config = { Object_store.default_config with Object_store.lock_timeout = 0.05 } in
  let os = fresh ~config (fresh_env ()) in
  let oid =
    Object_store.with_txn os (fun x -> Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "u" })
  in
  let t1 = Object_store.begin_ os and t2 = Object_store.begin_ os in
  ignore (Object_store.open_readonly t1 meter_cls oid);
  ignore (Object_store.open_readonly t2 meter_cls oid);
  Alcotest.(check bool) "upgrade times out" true
    (match Object_store.open_writable t1 meter_cls oid with
    | exception Lock_manager.Lock_timeout _ -> true
    | _ -> false);
  Object_store.commit t2;
  let m = Object_store.deref (Object_store.open_writable t1 meter_cls oid) in
  m.view_count <- 1;
  Object_store.commit t1;
  Alcotest.(check int) "no lock held" 0 (Object_store.held_count os)

let test_reopen_removed () =
  let os = fresh (fresh_env ()) in
  let oid =
    Object_store.with_txn os (fun x -> Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "d" })
  in
  let x = Object_store.begin_ os in
  ignore (Object_store.open_readonly x meter_cls oid);
  Object_store.remove x oid;
  let removed f = match f () with exception Object_store.Removed_in_transaction o -> Int.equal o oid | _ -> false in
  Alcotest.(check bool) "shared re-open refused" true (removed (fun () -> ignore (Object_store.open_readonly x meter_cls oid)));
  Alcotest.(check bool) "exclusive re-open refused" true
    (removed (fun () -> ignore (Object_store.open_writable x meter_cls oid)));
  Object_store.abort x;
  Alcotest.(check int) "no lock held" 0 (Object_store.held_count os)

exception Pickle_refused

let brittle_cls : unit Obj_class.t =
  Obj_class.define ~name:"test.brittle" ~pickle:(fun _ () -> raise Pickle_refused) ~unpickle:(fun ~version:_ _ -> ()) ()

(* Every way a transaction ends leaves no lock behind. *)
let test_locks_released () =
  let config = { Object_store.default_config with Object_store.lock_timeout = 0.02 } in
  let os = fresh ~config (fresh_env ()) in
  let a, b =
    Object_store.with_txn os (fun x ->
        let ins g = Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = g } in
        let a = ins "a" in
        (a, ins "b"))
  in
  let held what n = Alcotest.(check int) what n (Object_store.held_count os) in
  let x = Object_store.begin_ os in
  ignore (Object_store.open_writable x meter_cls a);
  ignore (Object_store.open_readonly x meter_cls b);
  ignore (Object_store.open_readonly x meter_cls b);
  held "two held" 2;
  Object_store.commit x;
  held "after commit" 0;
  let x = Object_store.begin_ os in
  ignore (Object_store.open_readonly x meter_cls a);
  ignore (Object_store.open_writable x meter_cls a);
  Object_store.abort x;
  held "after abort" 0;
  let x = Object_store.begin_ os in
  ignore (Object_store.open_writable x meter_cls a);
  ignore (Object_store.insert x brittle_cls ());
  Alcotest.(check bool) "commit fails" true
    (match Object_store.commit x with exception Pickle_refused -> true | () -> false);
  held "after a failed commit" 0;
  let t1 = Object_store.begin_ os and t2 = Object_store.begin_ os in
  ignore (Object_store.open_writable t1 meter_cls a);
  ignore (Object_store.open_readonly t2 meter_cls b);
  Alcotest.(check bool) "open times out" true
    (match Object_store.open_readonly t2 meter_cls a with exception Lock_manager.Lock_timeout _ -> true | _ -> false);
  held "a timed-out wait adds no entry" 2;
  Object_store.abort t2;
  Object_store.commit t1;
  held "after a lock timeout" 0;
  let x = Object_store.begin_ os in
  Object_store.remove x b;
  held "removal locks" 1;
  Object_store.commit x;
  held "after a remove-only commit" 0

(* An open or remove of an oid that holds no object raises before it
   locks anything: the transaction is still live and holds nothing. *)
let test_unknown_oid_holds_no_lock () =
  let os = fresh (fresh_env ()) in
  let oid =
    Object_store.with_txn os (fun x -> Object_store.insert x meter_cls { view_count = 0; print_count = 0; good = "k" })
  in
  let missing = oid + 1000 in
  let x = Object_store.begin_ os in
  let unknown what f =
    Alcotest.(check bool) what true
      (match f () with exception Object_store.Unknown_object o -> Int.equal o missing | () -> false);
    Alcotest.(check int) (what ^ ": nothing held") 0 (Object_store.held_count os)
  in
  unknown "open_readonly" (fun () -> ignore (Object_store.open_readonly x meter_cls missing));
  unknown "open_writable" (fun () -> ignore (Object_store.open_writable x meter_cls missing));
  unknown "remove" (fun () -> Object_store.remove x missing);
  ignore (Object_store.open_readonly x meter_cls oid);
  Alcotest.(check int) "the live object is held" 1 (Object_store.held_count os);
  Object_store.abort x;
  Alcotest.(check int) "nothing held after abort" 0 (Object_store.held_count os)

(* The lock work counters are exact: a read transaction over 18 distinct
   objects grants 18 locks, waits for none, and its re-opens grant nothing. *)
let test_lock_counters () =
  let os = fresh (fresh_env ()) in
  let oids =
    Object_store.with_txn os (fun x ->
        List.init 18 (fun i -> Object_store.insert x meter_cls { view_count = i; print_count = 0; good = "c" }))
  in
  let before = List.map (lock_count os) [ "acquired"; "waits"; "timeouts" ] in
  Object_store.with_txn os (fun x ->
      List.iter (fun oid -> ignore (Object_store.open_readonly x meter_cls oid)) (oids @ oids));
  let after = List.map (lock_count os) [ "acquired"; "waits"; "timeouts" ] in
  Alcotest.(check (list int)) "acquired, waits, timeouts" [ 18; 0; 0 ] (List.map2 ( - ) after before);
  Alcotest.(check int) "held" 0 (lock_count os "held")

(* A model of the lock bookkeeping: 2-3 transactions interleaved on one
   thread, each step an open, insert, remove, commit or abort. A remove
   picks the transaction's own inserts and writable opens first. After
   every step the store holds exactly the distinct oids the model's live
   transactions hold, and nothing once they have all ended; after an
   abort, every oid that transaction inserted, removed or not, is
   unknown. *)
type lock_step = Open_s of int | Open_x of int | Insert | Remove of int | Commit | Abort

let lock_step_to_string = function
  | Open_s k -> Printf.sprintf "S%d" k
  | Open_x k -> Printf.sprintf "X%d" k
  | Insert -> "I"
  | Remove k -> Printf.sprintf "R%d" k
  | Commit -> "C"
  | Abort -> "A"

type model_txn = {
  mx : Object_store.txn;
  held : (Object_store.oid, Lock_manager.mode) Hashtbl.t;
  mutable ins : Object_store.oid list;
  mutable born : Object_store.oid list; (* every oid it inserted, removed or not *)
  mutable rem : Object_store.oid list;
}

let run_lock_model (nslots, steps) =
  let config = { Object_store.default_config with Object_store.lock_timeout = 0.002 } in
  let os = fresh ~config (fresh_env ()) in
  let meter g = { view_count = 0; print_count = 0; good = g } in
  let pool = ref (Object_store.with_txn os (fun x -> List.init 4 (fun _ -> Object_store.insert x meter_cls (meter "m")))) in
  let slots = Array.make nslots None in
  let live () = List.filter_map Fun.id (Array.to_list slots) in
  let txn_in slot =
    match slots.(slot) with
    | Some m -> m
    | None ->
        let m = { mx = Object_store.begin_ os; held = Hashtbl.create 8; ins = []; born = []; rem = [] } in
        slots.(slot) <- Some m;
        m
  in
  let pick ?(own = []) k =
    match own @ !pool @ List.concat_map (fun m -> m.ins) (live ()) with
    | [] -> None
    | l -> Some (List.nth l (k mod List.length l))
  in
  let writable m = Hashtbl.fold (fun oid mode acc -> if mode = Lock_manager.Exclusive then oid :: acc else acc) m.held [] in
  let conflicts m oid mode =
    List.exists
      (fun o ->
        o != m
        &&
        match (Hashtbl.find_opt o.held oid, mode) with
        | None, _ -> false
        | Some Lock_manager.Exclusive, _ | Some Lock_manager.Shared, Lock_manager.Exclusive -> true
        | Some Lock_manager.Shared, Lock_manager.Shared -> false)
      (live ())
  in
  let grant m oid mode =
    match (Hashtbl.find_opt m.held oid, mode) with
    | Some Lock_manager.Exclusive, _ -> ()
    | _ -> Hashtbl.replace m.held oid mode
  in
  (* run [f], which needs [oid] at [mode]; true if it did what the model
     expects *)
  let locking m oid mode f =
    if List.mem oid m.rem then match f () with exception Object_store.Removed_in_transaction _ -> true | () -> false
    else if conflicts m oid mode then match f () with exception Lock_manager.Lock_timeout _ -> true | () -> false
    else begin
      f ();
      grant m oid mode;
      true
    end
  in
  let end_txn slot = slots.(slot) <- None in
  let step (slot, op) =
    let slot = slot mod nslots in
    let m = txn_in slot in
    match op with
    | Open_s k -> (
        match pick k with
        | None -> true
        | Some oid -> locking m oid Lock_manager.Shared (fun () -> ignore (Object_store.open_readonly m.mx meter_cls oid)))
    | Open_x k -> (
        match pick k with
        | None -> true
        | Some oid ->
            locking m oid Lock_manager.Exclusive (fun () -> ignore (Object_store.open_writable m.mx meter_cls oid)))
    | Insert ->
        let oid = Object_store.insert m.mx meter_cls (meter "i") in
        grant m oid Lock_manager.Exclusive;
        m.ins <- oid :: m.ins;
        m.born <- oid :: m.born;
        true
    | Remove k -> (
        match pick ~own:(m.ins @ writable m) k with
        | None -> true
        | Some oid ->
            locking m oid Lock_manager.Exclusive (fun () ->
                Object_store.remove m.mx oid;
                m.ins <- List.filter (fun o -> o <> oid) m.ins;
                m.rem <- oid :: m.rem))
    | Commit ->
        Object_store.commit ~durable:false m.mx;
        pool := List.filter (fun o -> not (List.mem o m.rem)) !pool @ m.ins;
        end_txn slot;
        true
    | Abort ->
        Object_store.abort m.mx;
        end_txn slot;
        List.for_all (unknown os) m.born
  in
  let modelled () =
    let oids = Hashtbl.create 8 in
    List.iter (fun m -> Hashtbl.iter (fun oid _ -> Hashtbl.replace oids oid ()) m.held) (live ());
    Hashtbl.length oids
  in
  (* and every nonzero lock word sits on a pinned entry *)
  let words_pinned () =
    let locked, unpinned = Object_store.lock_audit os in
    Int.equal locked (Object_store.held_count os) && Int.equal unpinned 0
  in
  let ok =
    List.for_all (fun s -> step s && Int.equal (Object_store.held_count os) (modelled ()) && words_pinned ()) steps
  in
  Array.iteri (fun slot -> function Some m -> Object_store.abort m.mx; end_txn slot | None -> ()) slots;
  ok && Int.equal (Object_store.held_count os) 0

let qcheck_lock_bookkeeping =
  let open QCheck in
  let step =
    Gen.(
      pair (int_bound 2)
        (frequency
           [
             (3, map (fun k -> Open_s k) nat);
             (3, map (fun k -> Open_x k) nat);
             (1, return Insert);
             (1, map (fun k -> Remove k) nat);
             (1, return Commit);
             (1, return Abort);
           ]))
  in
  let print (n, steps) =
    Printf.sprintf "%d txns: %s" n
      (String.concat " " (List.map (fun (s, op) -> Printf.sprintf "%d%s" s (lock_step_to_string op)) steps))
  in
  Test.make ~name:"lock bookkeeping matches model" ~count:60
    (make ~print Gen.(pair (int_range 2 3) (list_size (int_range 1 40) step)))
    run_lock_model

let qcheck_random_objects =
  QCheck.Test.make ~name:"random object workload matches model" ~count:10
    QCheck.(list_of_size Gen.(1 -- 8) (small_list (pair (int_range 0 8) small_int)))
    (fun batches ->
      let os = fresh (fresh_env ()) in
      let key_to_oid = Hashtbl.create 8 in
      let model = Hashtbl.create 8 in
      List.iter
        (fun batch ->
          let t = Object_store.begin_ os in
          List.iter
            (fun (k, v) ->
              (match Hashtbl.find_opt key_to_oid k with
              | None ->
                  let oid = Object_store.insert t meter_cls { view_count = v; print_count = 0; good = "q" } in
                  Hashtbl.replace key_to_oid k oid
              | Some oid ->
                  let m = Object_store.deref (Object_store.open_writable t meter_cls oid) in
                  m.view_count <- v);
              Hashtbl.replace model k v)
            batch;
          Object_store.commit t)
        batches;
      let t = Object_store.begin_ os in
      let ok =
        Hashtbl.fold
          (fun k v acc ->
            let oid = Hashtbl.find key_to_oid k in
            let m = Object_store.deref (Object_store.open_readonly t meter_cls oid) in
            acc && m.view_count = v)
          model true
      in
      Object_store.abort t;
      ok)

let () =
  Alcotest.run "tdb_objstore"
    [
      ( "typed-storage",
        [
          Alcotest.test_case "insert/open" `Quick test_insert_open;
          Alcotest.test_case "type mismatch" `Quick test_type_mismatch;
          Alcotest.test_case "stale refs" `Quick test_stale_ref;
          Alcotest.test_case "figure 4 scenario" `Quick test_paper_figure4;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "update" `Quick test_update_via_writable;
          Alcotest.test_case "abort rolls back" `Quick test_abort_rolls_back;
          Alcotest.test_case "abort insert" `Quick test_abort_insert_gone;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "remove aborted" `Quick test_remove_rolled_back_by_abort;
          Alcotest.test_case "insert, remove, abort" `Quick test_insert_remove_abort;
          Alcotest.test_case "write, remove, abort" `Quick test_write_remove_abort;
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery_objects;
          Alcotest.test_case "schema evolution" `Quick test_schema_evolution;
        ] );
      ( "roots",
        [
          Alcotest.test_case "set/get/clear" `Quick test_roots;
          Alcotest.test_case "aborted update" `Quick test_root_update_aborted;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "serializable increments" `Slow test_concurrent_increments;
          Alcotest.test_case "concurrent transfer stress" `Slow test_concurrent_transfer_stress;
          Alcotest.test_case "deadlock timeout" `Slow test_deadlock_broken_by_timeout;
          Alcotest.test_case "shared reads" `Quick test_shared_locks_concurrent_reads;
          Alcotest.test_case "writer blocks reader" `Quick test_writer_blocks_reader;
          Alcotest.test_case "blocked reader, writer aborts" `Quick test_blocked_reader_after_abort;
          Alcotest.test_case "blocked reader, writer commits" `Quick test_blocked_reader_after_commit;
          Alcotest.test_case "locking disabled" `Quick test_locking_disabled;
          Alcotest.test_case "barrier window, width 1" `Quick test_barrier_window_w1;
          Alcotest.test_case "barrier window, leader's batch" `Quick test_barrier_window_leader;
          Alcotest.test_case "durable commit in a barrier refused" `Quick test_durable_commit_in_barrier_refused;
          Alcotest.test_case "failed sync poisons group commit" `Quick test_failed_sync_poisons;
        ] );
      ( "cache",
        [
          Alcotest.test_case "eviction + reload" `Quick test_cache_eviction_and_reload;
          Alcotest.test_case "hits avoid I/O" `Quick test_cache_hit_no_io;
          Alcotest.test_case "two-level fall-through" `Quick test_two_level_cache;
          Alcotest.test_case "re-open under cache pressure" `Quick test_reopen_under_pressure;
          Alcotest.test_case "commit keeps no chunk copy" `Quick test_commit_keeps_no_chunk_copy;
          Alcotest.test_case "tiny object cache reads committed" `Quick test_tiny_object_cache_reads_committed;
        ] );
      ( "re-open",
        [
          Alcotest.test_case "shared after exclusive" `Quick test_reopen_shared_after_exclusive;
          Alcotest.test_case "upgrade still waits" `Quick test_reopen_upgrade_blocks;
          Alcotest.test_case "removed oid refused" `Quick test_reopen_removed;
          Alcotest.test_case "every ending releases locks" `Quick test_locks_released;
          Alcotest.test_case "unknown oid holds no lock" `Quick test_unknown_oid_holds_no_lock;
          Alcotest.test_case "lock counters" `Quick test_lock_counters;
        ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest qcheck_random_objects;
          QCheck_alcotest.to_alcotest qcheck_lock_bookkeeping;
        ] );
    ]
