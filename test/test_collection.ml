(* Collection store tests: functional indexes over B-tree / hash / list,
   queries, insensitive iterators, deferred index maintenance, uniqueness
   enforcement, schema ops. Mirrors paper Section 5 (Figure 7 scenario). *)

open Tdb_platform
open Tdb_chunk
open Tdb_objstore
open Tdb_collection

let cfg =
  { Config.default with Config.segment_size = 16384; initial_segments = 8;
    checkpoint_residual_bytes = 4 * 16384; anchor_slot_size = 4096 }

(* The paper's modified Meter class (Figure 7): unique id + usage counts. *)
type meter = { mutable id : int; mutable view_count : int; mutable print_count : int }

let meter_cls : meter Obj_class.t =
  let module P = Tdb_pickle.Pickle in
  Obj_class.define ~name:"ctest.meter"
    ~pickle:(fun w m ->
      P.int w m.id;
      P.int w m.view_count;
      P.int w m.print_count)
    ~unpickle:(fun ~version:_ r ->
      let id = P.read_int r in
      let view_count = P.read_int r in
      let print_count = P.read_int r in
      { id; view_count; print_count })
    ()

let id_ix ?(impl = Indexer.Hash) () =
  Indexer.make ~name:"id" ~key:Gkey.int ~extract:(fun m -> m.id) ~unique:true ~impl ()

(* functional index on a *derived* value, as in Figure 7 *)
let usage_ix ?(impl = Indexer.Btree) () =
  Indexer.make ~name:"usage" ~key:Gkey.int ~extract:(fun m -> m.view_count + m.print_count) ~impl ()

type env = { mem : Untrusted_store.Mem.handle; store : Untrusted_store.t; secret : Secret_store.t; ctr : One_way_counter.t }

let fresh_env () =
  let mem, store = Untrusted_store.open_mem () in
  let _, ctr = One_way_counter.open_mem () in
  { mem; store; secret = Secret_store.of_seed "ctest"; ctr }

let fresh env =
  Object_store.of_shard_store (Chunk_store.create ~config:cfg ~secret:env.secret ~counter:env.ctr env.store)

let reopen env =
  Object_store.of_shard_store (Chunk_store.open_existing ~config:cfg ~secret:env.secret ~counter:env.ctr env.store)

let setup ?(n = 10) ?(id_impl = Indexer.Hash) () =
  let env = fresh_env () in
  let os = fresh env in
  let ct = Cstore.begin_ os in
  let c = Cstore.create_collection ct ~name:"profile" ~schema:meter_cls (id_ix ~impl:id_impl ()) in
  Cstore.create_index ct c (usage_ix ());
  for i = 0 to n - 1 do
    ignore (Cstore.insert ct c { id = i; view_count = i; print_count = 0 })
  done;
  Cstore.commit ct;
  (env, os)

let collect it =
  let acc = ref [] in
  while not (Cstore.at_end it) do
    acc := Cstore.read it :: !acc;
    Cstore.advance it
  done;
  Cstore.close it;
  List.rev !acc

(* --- basics --- *)

let test_insert_and_exact () =
  let _, os = setup () in
  let ct = Cstore.begin_ os in
  let c = Cstore.open_collection ct ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ] in
  let it = Cstore.exact ct c (id_ix ()) 7 in
  let ms = collect it in
  Alcotest.(check int) "one hit" 1 (List.length ms);
  Alcotest.(check int) "right object" 7 (List.hd ms).id;
  let it2 = Cstore.exact ct c (id_ix ()) 999 in
  Alcotest.(check int) "no hit" 0 (List.length (collect it2));
  Cstore.commit ct

let test_scan_btree_in_key_order () =
  let _, os = setup ~n:50 () in
  let ct = Cstore.begin_ os in
  let c = Cstore.open_collection ct ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ] in
  let usages = List.map (fun m -> m.view_count + m.print_count) (collect (Cstore.scan ct c (usage_ix ()))) in
  Alcotest.(check int) "all" 50 (List.length usages);
  Alcotest.(check bool) "sorted" true (List.sort compare usages = usages);
  Cstore.commit ct

let test_range_query () =
  let _, os = setup ~n:30 () in
  let ct = Cstore.begin_ os in
  let c = Cstore.open_collection ct ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ] in
  let ms = collect (Cstore.range ct c (usage_ix ()) ~min:(Some 10) ~max:(Some 19)) in
  Alcotest.(check int) "inclusive range" 10 (List.length ms);
  List.iter (fun m -> Alcotest.(check bool) "in range" true (m.view_count >= 10 && m.view_count <= 19)) ms;
  (* open-ended ranges *)
  Alcotest.(check int) "min open" 20 (List.length (collect (Cstore.range ct c (usage_ix ()) ~min:None ~max:(Some 19))));
  Alcotest.(check int) "max open" 10 (List.length (collect (Cstore.range ct c (usage_ix ()) ~min:(Some 20) ~max:None)));
  Cstore.commit ct

let test_range_on_hash_unsupported () =
  let _, os = setup () in
  let ct = Cstore.begin_ os in
  let c = Cstore.open_collection ct ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ] in
  Alcotest.(check bool) "raises" true
    (match Cstore.range ct c (id_ix ()) ~min:(Some 1) ~max:(Some 2) with
    | exception Index.Unsupported_query _ -> true
    | _ -> false);
  Cstore.abort ct

let test_unique_violation_on_insert () =
  let _, os = setup () in
  let ct = Cstore.begin_ os in
  let c = Cstore.open_collection ct ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ] in
  let size_before = Cstore.size ct c in
  Alcotest.(check bool) "duplicate id rejected" true
    (match Cstore.insert ct c { id = 3; view_count = 0; print_count = 0 } with
    | exception Index.Duplicate_key { index = "id"; _ } -> true
    | _ -> false);
  Alcotest.(check int) "collection unchanged" size_before (Cstore.size ct c);
  (* the rejected object is fully gone: its usage key is not in the index *)
  let ms = collect (Cstore.exact ct c (usage_ix ()) 0) in
  Alcotest.(check int) "no phantom entries" 1 (List.length ms);
  Cstore.commit ct

(* --- iterator update semantics (Figure 7: reset all counters >= 100) --- *)

let test_update_via_iterator_moves_index () =
  let _, os = setup ~n:5 () in
  let ct = Cstore.begin_ os in
  let c = Cstore.open_collection ct ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ] in
  (* bump meter 2's usage to 100 via iterator *)
  let it = Cstore.exact ct c (id_ix ()) 2 in
  let m = Cstore.write it in
  m.view_count <- 100;
  Cstore.advance it;
  Cstore.close it;
  (* after close, the usage index reflects the new derived key *)
  let hits = collect (Cstore.exact ct c (usage_ix ()) 100) in
  Alcotest.(check int) "new key present" 1 (List.length hits);
  Alcotest.(check int) "old key gone" 0 (List.length (collect (Cstore.exact ct c (usage_ix ()) 2)));
  Cstore.commit ct

let test_iterator_insensitive () =
  (* Halloween protection: updating the key being iterated must not change
     the iteration (paper Section 5.2.2). *)
  let _, os = setup ~n:10 () in
  let ct = Cstore.begin_ os in
  let c = Cstore.open_collection ct ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ] in
  let it = Cstore.range ct c (usage_ix ()) ~min:(Some 0) ~max:None in
  let seen = ref 0 in
  while not (Cstore.at_end it) do
    let m = Cstore.write it in
    (* push every key upward — with a sensitive iterator this never ends *)
    m.view_count <- m.view_count + 1000;
    incr seen;
    Cstore.advance it
  done;
  Cstore.close it;
  Alcotest.(check int) "each object enumerated exactly once" 10 !seen;
  Cstore.commit ct

let test_updates_invisible_until_close () =
  let _, os = setup ~n:3 () in
  let ct = Cstore.begin_ os in
  let c = Cstore.open_collection ct ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ] in
  let it = Cstore.exact ct c (id_ix ()) 1 in
  let m = Cstore.write it in
  m.view_count <- 500;
  (* before close: the usage index still finds the object under the old key *)
  Cstore.advance it;
  Cstore.close it;
  let it2 = Cstore.exact ct c (usage_ix ()) 500 in
  Alcotest.(check int) "visible after close" 1 (List.length (collect it2));
  Cstore.commit ct

let test_concurrent_iterators_blocked_on_write () =
  let _, os = setup () in
  let ct = Cstore.begin_ os in
  let c = Cstore.open_collection ct ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ] in
  let it1 = Cstore.scan ct c (usage_ix ()) in
  let it2 = Cstore.scan ct c (usage_ix ()) in
  (* two read iterators are fine *)
  ignore (Cstore.read it1);
  ignore (Cstore.read it2);
  (* writable deref with another iterator open violates constraint 2 *)
  Alcotest.(check bool) "write blocked" true
    (match Cstore.write it1 with exception Cstore.Concurrent_iterators -> true | _ -> false);
  Cstore.close it2;
  (* now allowed *)
  let m = Cstore.write it1 in
  m.print_count <- m.print_count + 1;
  Cstore.advance it1;
  Cstore.close it1;
  Cstore.commit ct

(* A closed iterator leaves its transaction: after 10 000 exact+close
   pairs, constraint 2 still sees exactly the iterators that are open. *)
let test_closed_iterators_leave_txn () =
  let _, os = setup () in
  let ct = Cstore.begin_ os in
  let c = Cstore.open_collection ct ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ] in
  for i = 1 to 10_000 do
    Cstore.close (Cstore.exact ct c (id_ix ()) (i mod 10))
  done;
  let a = Cstore.exact ct c (id_ix ()) 3 in
  let b = Cstore.exact ct c (id_ix ()) 4 in
  Alcotest.(check bool) "write with two open" true
    (match Cstore.write a with exception Cstore.Concurrent_iterators -> true | _ -> false);
  Alcotest.(check bool) "delete with two open" true
    (match Cstore.delete a with exception Cstore.Concurrent_iterators -> true | () -> false);
  Cstore.close b;
  Cstore.close b;
  (Cstore.write a).print_count <- 5;
  Cstore.close a;
  Alcotest.(check bool) "closed iterator" true
    (match Cstore.read a with exception Cstore.Iterator_closed -> true | _ -> false);
  let usage_8 = collect (Cstore.range ct c (usage_ix ()) ~min:(Some 8) ~max:(Some 8)) in
  Alcotest.(check (list int)) "update applied" [ 3; 8 ] (List.sort Int.compare (List.map (fun m -> m.id) usage_8));
  Cstore.commit ct

let test_delete_via_iterator () =
  let _, os = setup ~n:6 () in
  let ct = Cstore.begin_ os in
  let c = Cstore.open_collection ct ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ] in
  let it = Cstore.scan ct c (usage_ix ()) in
  (* delete meters with even usage *)
  while not (Cstore.at_end it) do
    let m = Cstore.read it in
    if m.view_count mod 2 = 0 then Cstore.delete it;
    Cstore.advance it
  done;
  Cstore.close it;
  Alcotest.(check int) "half deleted" 3 (Cstore.size ct c);
  Alcotest.(check int) "scan agrees" 3 (List.length (collect (Cstore.scan ct c (usage_ix ()))));
  Alcotest.(check int) "hash index agrees" 0 (List.length (collect (Cstore.exact ct c (id_ix ()) 2)));
  Cstore.commit ct

let test_unique_violation_at_close_removes_object () =
  (* deferred maintenance surfaces duplicates only at close; the violator
     is removed and reported so the app can re-integrate it *)
  let env = fresh_env () in
  let os = fresh env in
  let ct = Cstore.begin_ os in
  let c = Cstore.create_collection ct ~name:"u" ~schema:meter_cls (id_ix ()) in
  let _o1 = Cstore.insert ct c { id = 1; view_count = 0; print_count = 0 } in
  let o2 = Cstore.insert ct c { id = 2; view_count = 0; print_count = 0 } in
  let it = Cstore.exact ct c (id_ix ()) 2 in
  let m = Cstore.write it in
  m.view_count <- 77;
  (* collides with object 1 in the unique id index *)
  let m = Cstore.write it in
  ignore m;
  (Cstore.write it).id <- 1;
  Cstore.advance it;
  (match Cstore.close it with
  | () -> Alcotest.fail "expected Unique_violation"
  | exception Cstore.Unique_violation { index = "id"; removed } ->
      Alcotest.(check (list int)) "violator removed" [ o2 ] removed);
  Alcotest.(check int) "collection shrank" 1 (Cstore.size ct c);
  (* object 1 still findable and intact *)
  Alcotest.(check int) "survivor" 1 (List.length (collect (Cstore.exact ct c (id_ix ()) 1)));
  Cstore.commit ct

(* --- index management --- *)

let test_create_index_on_nonempty_and_remove () =
  let _, os = setup ~n:20 () in
  let ct = Cstore.begin_ os in
  let c = Cstore.open_collection ct ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ] in
  let view_ix = Indexer.make ~name:"views" ~key:Gkey.int ~extract:(fun m -> m.view_count) ~impl:Indexer.Btree () in
  Cstore.create_index ct c view_ix;
  Alcotest.(check int) "new index works" 1 (List.length (collect (Cstore.exact ct c view_ix 13)));
  Cstore.remove_index ct c ~name:"views";
  Alcotest.(check bool) "index gone" true
    (match Cstore.exact ct c view_ix 13 with exception Cstore.Unknown_index _ -> true | _ -> false);
  Cstore.commit ct

let test_create_unique_index_duplicates_rejected () =
  let env = fresh_env () in
  let os = fresh env in
  let ct = Cstore.begin_ os in
  let c = Cstore.create_collection ct ~name:"dups" ~schema:meter_cls (id_ix ()) in
  ignore (Cstore.insert ct c { id = 1; view_count = 5; print_count = 0 });
  ignore (Cstore.insert ct c { id = 2; view_count = 5; print_count = 0 });
  let uniq_usage =
    Indexer.make ~name:"uu" ~key:Gkey.int ~extract:(fun m -> m.view_count) ~unique:true ~impl:Indexer.Btree ()
  in
  Alcotest.(check bool) "rejected" true
    (match Cstore.create_index ct c uniq_usage with exception Index.Duplicate_key _ -> true | _ -> false);
  Cstore.commit ct

let test_remove_last_index_rejected () =
  let env = fresh_env () in
  let os = fresh env in
  let ct = Cstore.begin_ os in
  let c = Cstore.create_collection ct ~name:"solo" ~schema:meter_cls (id_ix ()) in
  Alcotest.(check bool) "last index protected" true
    (match Cstore.remove_index ct c ~name:"id" with exception Cstore.Last_index -> true | _ -> false);
  Cstore.commit ct

let test_remove_collection () =
  let env = fresh_env () in
  let os = fresh env in
  let ct = Cstore.begin_ os in
  let c = Cstore.create_collection ct ~name:"doomed" ~schema:meter_cls (id_ix ()) in
  let oids = List.init 5 (fun i -> Cstore.insert ct c { id = i; view_count = 0; print_count = 0 }) in
  Cstore.commit ct;
  let ct2 = Cstore.begin_ os in
  Cstore.remove_collection ct2 ~name:"doomed" ~schema:meter_cls ~indexers:[ Indexer.Generic (id_ix ()) ];
  Cstore.commit ct2;
  let ct3 = Cstore.begin_ os in
  Alcotest.(check bool) "gone" false (Cstore.collection_exists ct3 ~name:"doomed");
  (* the member objects are gone from the object store too *)
  List.iter
    (fun oid ->
      Alcotest.(check bool) "object deleted" true
        (match Object_store.open_readonly (Cstore.txn ct3) meter_cls oid with
        | exception Object_store.Unknown_object _ -> true
        | _ -> false))
    oids;
  Cstore.abort ct3

(* --- all three index implementations at scale --- *)

let test_index_impls_at_scale () =
  List.iter
    (fun impl ->
      let env = fresh_env () in
      let os = fresh env in
      let ct = Cstore.begin_ os in
      let name = "scale-" ^ Indexer.impl_name impl in
      let ix = Indexer.make ~name:"id" ~key:Gkey.int ~extract:(fun (m : meter) -> m.id) ~unique:true ~impl () in
      let c = Cstore.create_collection ct ~name ~schema:meter_cls ix in
      let n = 300 (* forces B-tree splits, hash bucket splits, list chaining *) in
      for i = 0 to n - 1 do
        ignore (Cstore.insert ct c { id = i * 7 mod n (* shuffled-ish, still unique: gcd(7,300)=1 *); view_count = i; print_count = 0 })
      done;
      Alcotest.(check int) "size" n (Cstore.size ct c);
      (* every key findable *)
      for k = 0 to n - 1 do
        let hits = collect (Cstore.exact ct c ix k) in
        if List.length hits <> 1 then Alcotest.failf "%s: key %d -> %d hits" name k (List.length hits)
      done;
      Alcotest.(check int) "scan size" n (List.length (collect (Cstore.scan ct c ix)));
      (* delete a third, re-check *)
      let it = Cstore.scan ct c ix in
      let i = ref 0 in
      while not (Cstore.at_end it) do
        if !i mod 3 = 0 then Cstore.delete it;
        incr i;
        Cstore.advance it
      done;
      Cstore.close it;
      Alcotest.(check int) "after delete" (n - ((n + 2) / 3)) (Cstore.size ct c);
      Cstore.commit ct)
    [ Indexer.Btree; Indexer.Hash; Indexer.List ]

(* --- persistence --- *)

let test_collection_persists () =
  let env, os = setup ~n:15 () in
  Object_store.close os;
  let os2 = reopen env in
  let ct = Cstore.begin_ os2 in
  let c = Cstore.open_collection ct ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ] in
  Alcotest.(check int) "size" 15 (Cstore.size ct c);
  Alcotest.(check int) "exact" 1 (List.length (collect (Cstore.exact ct c (id_ix ()) 11)));
  Alcotest.(check int) "range" 5 (List.length (collect (Cstore.range ct c (usage_ix ()) ~min:(Some 0) ~max:(Some 4))));
  Cstore.commit ct

let test_abort_discards_everything () =
  let _, os = setup ~n:5 () in
  let ct = Cstore.begin_ os in
  let c = Cstore.open_collection ct ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ] in
  ignore (Cstore.insert ct c { id = 100; view_count = 0; print_count = 0 });
  let it = Cstore.exact ct c (id_ix ()) 1 in
  (Cstore.write it).view_count <- 999;
  Cstore.advance it;
  Cstore.close it;
  Cstore.abort ct;
  let ct2 = Cstore.begin_ os in
  let c2 = Cstore.open_collection ct2 ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ] in
  Alcotest.(check int) "insert discarded" 5 (Cstore.size ct2 c2);
  Alcotest.(check int) "update discarded" 0 (List.length (collect (Cstore.exact ct2 c2 (usage_ix ()) 999)));
  Cstore.commit ct2

(* Figure 6's refused insert (insert, then remove on a unique violation)
   undone by the abort that follows: every refused object's oid is
   unknown afterwards, and the collection keeps its size. The refused
   oids lie between an id taken before and one taken after. *)
let test_refused_insert_then_abort () =
  let _, os = setup ~n:5 () in
  let next_oid () =
    let x = Object_store.begin_ os in
    let oid = Object_store.insert x meter_cls { id = -1; view_count = 0; print_count = 0 } in
    Object_store.abort x;
    oid
  in
  let open_coll ct =
    Cstore.open_collection ct ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ]
  in
  let before = next_oid () in
  for id = 1 to 3 do
    Alcotest.(check bool) "duplicate refused" true
      (match Cstore.with_ctxn os (fun ct -> Cstore.insert ct (open_coll ct) { id; view_count = 0; print_count = 0 }) with
      | exception Index.Duplicate_key { index = "id"; _ } -> true
      | _ -> false)
  done;
  let after = next_oid () in
  Alcotest.(check bool) "refused inserts took ids" true (after - before > 1);
  Object_store.with_txn os (fun x ->
      for oid = before + 1 to after - 1 do
        Alcotest.(check bool) (Printf.sprintf "refused oid %d unknown" oid) true
          (match Object_store.open_readonly x meter_cls oid with exception Object_store.Unknown_object _ -> true | _ -> false)
      done);
  Cstore.with_ctxn os (fun ct -> Alcotest.(check int) "collection unchanged" 5 (Cstore.size ct (open_coll ct)))

let test_commit_with_open_iterator_rejected () =
  let _, os = setup () in
  let ct = Cstore.begin_ os in
  let c = Cstore.open_collection ct ~name:"profile" ~schema:meter_cls
      ~indexers:[ Indexer.Generic (id_ix ()); Indexer.Generic (usage_ix ()) ] in
  let it = Cstore.scan ct c (usage_ix ()) in
  Alcotest.(check bool) "rejected" true
    (match Cstore.commit ct with exception Invalid_argument _ -> true | _ -> false);
  Cstore.close it;
  Cstore.commit ct

let test_immutable_key_optimization () =
  (* declaring the id key immutable skips its pre-update snapshot; updates
     and deletes through iterators must still maintain every index *)
  let env = fresh_env () in
  let os = fresh env in
  let ct = Cstore.begin_ os in
  let id_imm =
    Indexer.make ~name:"id" ~key:Gkey.int ~extract:(fun (m : meter) -> m.id) ~unique:true
      ~impl:Indexer.Hash ~immutable:true ()
  in
  let c = Cstore.create_collection ct ~name:"imm" ~schema:meter_cls id_imm in
  Cstore.create_index ct c (usage_ix ());
  for i = 0 to 9 do
    ignore (Cstore.insert ct c { id = i; view_count = i; print_count = 0 })
  done;
  (* mutable key update still moves the usage index *)
  let it = Cstore.exact ct c id_imm 4 in
  (Cstore.write it).view_count <- 400;
  Cstore.advance it;
  Cstore.close it;
  Alcotest.(check int) "new usage key" 1 (List.length (collect (Cstore.exact ct c (usage_ix ()) 400)));
  Alcotest.(check int) "old usage key gone" 0 (List.length (collect (Cstore.exact ct c (usage_ix ()) 4)));
  Alcotest.(check int) "immutable index intact" 1 (List.length (collect (Cstore.exact ct c id_imm 4)));
  (* delete maintains the immutable index too *)
  let it = Cstore.exact ct c id_imm 7 in
  Cstore.delete it;
  Cstore.close it;
  Alcotest.(check int) "deleted from immutable index" 0 (List.length (collect (Cstore.exact ct c id_imm 7)));
  Alcotest.(check int) "deleted from mutable index" 0 (List.length (collect (Cstore.exact ct c (usage_ix ()) 7)));
  Cstore.commit ct

let qcheck_model_equivalence =
  (* random inserts/updates/deletes tracked against a model keyed by id *)
  QCheck.Test.make ~name:"collection matches model" ~count:12
    QCheck.(list (triple (int_range 0 30) (int_range 0 100) (int_range 0 2)))
    (fun ops ->
      let env = fresh_env () in
      let os = fresh env in
      let model = Hashtbl.create 16 in
      Cstore.with_ctxn os (fun ct ->
          let c = Cstore.create_collection ct ~name:"m" ~schema:meter_cls (id_ix ()) in
          Cstore.create_index ct c (usage_ix ());
          List.iter
            (fun (id, usage, op) ->
              match op with
              | 0 (* insert *) ->
                  if not (Hashtbl.mem model id) then begin
                    ignore (Cstore.insert ct c { id; view_count = usage; print_count = 0 });
                    Hashtbl.replace model id usage
                  end
              | 1 (* update via iterator *) ->
                  if Hashtbl.mem model id then begin
                    let it = Cstore.exact ct c (id_ix ()) id in
                    if not (Cstore.at_end it) then begin
                      (Cstore.write it).view_count <- usage;
                      Hashtbl.replace model id usage
                    end;
                    Cstore.close it
                  end
              | _ (* delete *) ->
                  if Hashtbl.mem model id then begin
                    let it = Cstore.exact ct c (id_ix ()) id in
                    if not (Cstore.at_end it) then begin
                      Cstore.delete it;
                      Hashtbl.remove model id
                    end;
                    Cstore.close it
                  end)
            ops;
          (* verify *)
          Hashtbl.fold
            (fun id usage ok ->
              let it = Cstore.exact ct c (id_ix ()) id in
              let hit = if Cstore.at_end it then None else Some (Cstore.read it) in
              Cstore.close it;
              ok && match hit with Some m -> m.view_count = usage | None -> false)
            model
            (Cstore.size ct c = Hashtbl.length model)))

let () =
  Alcotest.run "tdb_collection"
    [
      ( "queries",
        [
          Alcotest.test_case "insert/exact" `Quick test_insert_and_exact;
          Alcotest.test_case "btree scan ordered" `Quick test_scan_btree_in_key_order;
          Alcotest.test_case "range" `Quick test_range_query;
          Alcotest.test_case "range on hash rejected" `Quick test_range_on_hash_unsupported;
        ] );
      ( "uniqueness",
        [
          Alcotest.test_case "violation on insert" `Quick test_unique_violation_on_insert;
          Alcotest.test_case "violation at close" `Quick test_unique_violation_at_close_removes_object;
          Alcotest.test_case "unique index on dups" `Quick test_create_unique_index_duplicates_rejected;
        ] );
      ( "iterators",
        [
          Alcotest.test_case "update moves index" `Quick test_update_via_iterator_moves_index;
          Alcotest.test_case "insensitive (Halloween)" `Quick test_iterator_insensitive;
          Alcotest.test_case "deferred visibility" `Quick test_updates_invisible_until_close;
          Alcotest.test_case "concurrent iterators" `Quick test_concurrent_iterators_blocked_on_write;
          Alcotest.test_case "closed iterators leave the txn" `Quick test_closed_iterators_leave_txn;
          Alcotest.test_case "delete" `Quick test_delete_via_iterator;
          Alcotest.test_case "open iterator blocks commit" `Quick test_commit_with_open_iterator_rejected;
        ] );
      ( "schema",
        [
          Alcotest.test_case "create/remove index" `Quick test_create_index_on_nonempty_and_remove;
          Alcotest.test_case "immutable keys" `Quick test_immutable_key_optimization;
          Alcotest.test_case "last index" `Quick test_remove_last_index_rejected;
          Alcotest.test_case "remove collection" `Quick test_remove_collection;
        ] );
      ( "scale+persistence",
        [
          Alcotest.test_case "all impls at scale" `Slow test_index_impls_at_scale;
          Alcotest.test_case "persists across reopen" `Quick test_collection_persists;
          Alcotest.test_case "abort discards" `Quick test_abort_discards_everything;
          Alcotest.test_case "refused duplicate insert, then abort" `Quick test_refused_insert_then_abort;
        ] );
      ("qcheck", [ QCheck_alcotest.to_alcotest qcheck_model_equivalence ]);
    ]
