(** The collection store (paper Section 5): keyed access to collections of
    objects with automatically maintained functional indexes.

    - A collection is a set of objects sharing one or more indexes; all
      objects belong to at most one collection.
    - Indexes are functional: keys are produced by pure extractor functions
      (see {!Indexer}), so keys can be variable-sized or derived values.
    - Queries (scan / exact-match / range) return *insensitive* iterators:
      an iterator never sees the effects of updates made through it. The
      four constraints of Section 5.2.2 are enforced:
      1. writable references to collection objects exist only by
         dereferencing an iterator (the CTransaction API offers no other
         way);
      2. an iterator can be dereferenced writable only while it is the sole
         open iterator on its collection;
      3. iterators advance in one direction only;
      4. index maintenance is deferred until the iterator closes, using
         pre/post key snapshots (Section 5.2.3).
    - Deferred maintenance can surface duplicate keys in unique indexes
      only at close; offending objects are removed from the collection and
      reported in {!Unique_violation}, as in the paper. *)

open Tdb_objstore

type oid = Object_store.oid

exception Unknown_index of string
exception Missing_indexer of string
exception Last_index
exception Concurrent_iterators
exception Iterator_closed
exception Not_in_collection of oid

exception Unique_violation of { index : string; removed : oid list }
(** Raised at iterator close (or collection insert / index creation): the
    listed objects were removed from the collection so the application can
    re-integrate them (paper Section 5.2.3). *)

(* ------------------------------------------------------------------ *)
(* Persistent collection metadata                                      *)
(* ------------------------------------------------------------------ *)

type index_meta = { im_name : string; im_impl : Indexer.impl; im_unique : bool; im_anchor : oid }

type coll_obj = { co_schema : string; mutable co_indexes : index_meta list; mutable co_size : int }

let coll_cls : coll_obj Obj_class.t =
  let module P = Tdb_pickle.Pickle in
  Obj_class.define ~name:"tdb.collection"
    ~pickle:(fun w c ->
      P.string w c.co_schema;
      P.list w
        (fun w m ->
          P.string w m.im_name;
          P.byte w (Indexer.impl_to_byte m.im_impl);
          P.bool w m.im_unique;
          P.uint w m.im_anchor)
        c.co_indexes;
      P.uint w c.co_size)
    ~unpickle:(fun ~version:_ r ->
      let co_schema = P.read_string r in
      let co_indexes =
        P.read_list r (fun r ->
            let im_name = P.read_string r in
            let im_impl = Indexer.impl_of_byte (P.read_byte r) in
            let im_unique = P.read_bool r in
            let im_anchor = P.read_uint r in
            { im_name; im_impl; im_unique; im_anchor })
      in
      let co_size = P.read_uint r in
      { co_schema; co_indexes; co_size })
    ()

let root_name name = "tdb.collection:" ^ name

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

type iter_token = { it_coll : oid; mutable it_open : bool }

type t = {
  txn : Object_store.txn;
  mutable iters : iter_token list; (* the iterators open in this txn; [close] drops its own *)
}

let begin_ (os : Object_store.t) : t = { txn = Object_store.begin_ os; iters = [] }

(** Escape hatch to the object-store transaction (for objects that live
    outside any collection). Using it to write *collection* objects breaks
    iterator insensitivity — don't. *)
let txn (ct : t) : Object_store.txn = ct.txn

(* Constraint 2: [tok]'s iterator is the only one open on its collection. *)
let sole_iter ct tok =
  tok.it_open && List.for_all (fun it -> it == tok || not (Int.equal it.it_coll tok.it_coll)) ct.iters

(* ------------------------------------------------------------------ *)
(* Collection handles                                                  *)
(* ------------------------------------------------------------------ *)

type 'a collection = {
  coll_oid : oid;
  cls : 'a Obj_class.t;
  indexers : (string, 'a Indexer.generic) Hashtbl.t; (* registered extractors *)
}

let meta_ro ct (c : 'a collection) : coll_obj = Object_store.deref (Object_store.open_readonly ct.txn coll_cls c.coll_oid)
let meta_rw ct (c : 'a collection) : coll_obj = Object_store.deref (Object_store.open_writable ct.txn coll_cls c.coll_oid)

let find_meta (m : coll_obj) (name : string) : index_meta =
  match List.find_opt (fun im -> String.equal im.im_name name) m.co_indexes with
  | Some im -> im
  | None -> raise (Unknown_index name)

(** Every collection keeps at least one index (the [Last_index] guard on
    [drop_index] preserves the invariant); the first one is used to
    enumerate members. *)
let first_index (m : coll_obj) : index_meta =
  match m.co_indexes with im :: _ -> im | [] -> invalid_arg "collection has no indexes"

let generic_of (c : 'a collection) (name : string) : 'a Indexer.generic =
  match Hashtbl.find_opt c.indexers name with Some g -> g | None -> raise (Missing_indexer name)

let ops_of_generic (Indexer.Generic ix) (im : index_meta) : Index.ops =
  Index.ops_of ~index_name:ix.Indexer.name ~unique:im.im_unique ~impl:im.im_impl ix.Indexer.key

(** All (meta, generic, ops) for maintenance across every index. *)
let all_indexes ct (c : 'a collection) : (index_meta * 'a Indexer.generic * Index.ops) list =
  let m = meta_ro ct c in
  List.map
    (fun im ->
      let g = generic_of c im.im_name in
      (im, g, ops_of_generic g im))
    m.co_indexes

(** Current key bytes of [v] for every index in [indexes] (as resolved by
    {!all_indexes}). With [skip_immutable], keys the application declared
    immutable are omitted (they can always be recomputed from the current
    value — the paper's snapshot-storage optimization). *)
let snapshot_keys ?(skip_immutable = false) (indexes : (index_meta * 'a Indexer.generic * Index.ops) list) (v : 'a) :
    (string * string) list =
  List.filter_map
    (fun (im, g, _) ->
      if skip_immutable && Indexer.generic_immutable g then None
      else Some (im.im_name, Indexer.generic_key_bytes g v))
    indexes

(* --- creation / opening --- *)

let register_indexer (c : 'a collection) (ix : ('a, 'k) Indexer.t) : unit =
  Hashtbl.replace c.indexers ix.Indexer.name (Indexer.Generic ix)

(** Create a named collection with a single initial index (paper Figure 5:
    createCollection). *)
let create_collection ct ~(name : string) ~(schema : 'a Obj_class.t) (ix : ('a, 'k) Indexer.t) : 'a collection =
  if Object_store.root ct.txn (root_name name) <> None then
    invalid_arg (Printf.sprintf "collection %S already exists" name);
  let anchor = Index.create_anchor ct.txn ix.Indexer.impl in
  let co =
    {
      co_schema = schema.Obj_class.name;
      co_indexes =
        [ { im_name = ix.Indexer.name; im_impl = ix.Indexer.impl; im_unique = ix.Indexer.unique; im_anchor = anchor } ];
      co_size = 0;
    }
  in
  let coll_oid = Object_store.insert ct.txn coll_cls co in
  Object_store.set_root ct.txn (root_name name) (Some coll_oid);
  let c = { coll_oid; cls = schema; indexers = Hashtbl.create 4 } in
  register_indexer c ix;
  c

(** Open an existing named collection. Indexers must be re-registered
    (extractor functions cannot persist): pass them in [indexers], or let
    queries register theirs on the fly — but updates through iterators need
    the extractors of *all* persisted indexes for deferred maintenance, so
    a missing one raises {!Missing_indexer} at that point. *)
let open_collection ?(indexers : 'a Indexer.generic list = []) ct ~(name : string)
    ~(schema : 'a Obj_class.t) : 'a collection =
  match Object_store.root ct.txn (root_name name) with
  | None -> invalid_arg (Printf.sprintf "unknown collection %S" name)
  | Some coll_oid ->
      let m = Object_store.deref (Object_store.open_readonly ct.txn coll_cls coll_oid) in
      if not (String.equal m.co_schema schema.Obj_class.name) then
        raise (Obj_class.Type_mismatch { expected = schema.Obj_class.name; actual = m.co_schema });
      let c = { coll_oid; cls = schema; indexers = Hashtbl.create 4 } in
      List.iter (fun (Indexer.Generic ix) -> register_indexer c ix) indexers;
      c

let collection_exists ct ~(name : string) : bool = Object_store.root ct.txn (root_name name) <> None

(* --- queries & iterators --- *)

type 'a iterator = {
  ct : t;
  coll : 'a collection;
  token : iter_token;
  items : oid array; (* materialized result set: insensitive by construction *)
  mutable pos : int;
  (* deferred maintenance state *)
  mutable touched : (oid, 'a * (string * string) list) Hashtbl.t option;
      (* oid -> value, pre-update keys; made by the first [write] or [delete] *)
  mutable deleted : (oid * (string * string) list) list;
}

let make_iter ct (c : 'a collection) (oids : oid list) : 'a iterator =
  let token = { it_coll = c.coll_oid; it_open = true } in
  ct.iters <- token :: ct.iters;
  { ct; coll = c; token; items = Array.of_list oids; pos = 0; touched = None; deleted = [] }

(** Scan query over any index (B-tree scans in key order). *)
let scan ct (c : 'a collection) (ix : ('a, 'k) Indexer.t) : 'a iterator =
  register_indexer c ix;
  let m = meta_ro ct c in
  let im = find_meta m ix.Indexer.name in
  make_iter ct c (Index.scan ct.txn (ops_of_generic (Indexer.Generic ix) im) im.im_anchor)

(** Exact-match query. *)
let exact ct (c : 'a collection) (ix : ('a, 'k) Indexer.t) (key : 'k) : 'a iterator =
  register_indexer c ix;
  let m = meta_ro ct c in
  let im = find_meta m ix.Indexer.name in
  make_iter ct c
    (Index.exact ct.txn (ops_of_generic (Indexer.Generic ix) im) im.im_anchor ~key:(Gkey.to_bytes ix.Indexer.key key))

(** Range query, inclusive on both ends; [None] leaves a side open. *)
let range ct (c : 'a collection) (ix : ('a, 'k) Indexer.t) ~(min : 'k option) ~(max : 'k option) : 'a iterator =
  register_indexer c ix;
  let m = meta_ro ct c in
  let im = find_meta m ix.Indexer.name in
  make_iter ct c
    (Index.range ct.txn (ops_of_generic (Indexer.Generic ix) im) im.im_anchor
       ~min:(Option.map (Gkey.to_bytes ix.Indexer.key) min)
       ~max:(Option.map (Gkey.to_bytes ix.Indexer.key) max))

(* --- iterator operations --- *)

let check_open (it : 'a iterator) = if not (it.token.it_open) then raise Iterator_closed

let at_end (it : 'a iterator) : bool =
  check_open it;
  it.pos >= Array.length it.items

let advance (it : 'a iterator) : unit =
  check_open it;
  if it.pos < Array.length it.items then it.pos <- it.pos + 1

let current_oid (it : 'a iterator) : oid =
  check_open it;
  if at_end it then invalid_arg "Iterator: past the end";
  it.items.(it.pos)

(** Read-only view of the current object. *)
let read (it : 'a iterator) : 'a =
  Object_store.deref (Object_store.open_readonly it.ct.txn it.coll.cls (current_oid it))

let touched_of (it : 'a iterator) =
  match it.touched with
  | Some t -> t
  | None ->
      let t = Hashtbl.create 8 in
      it.touched <- Some t;
      t

(** Writable view of the current object. Takes the pre-update key snapshot
    on first access (Section 5.2.3) and requires this to be the only open
    iterator on the collection (constraint 2). *)
let write (it : 'a iterator) : 'a =
  let oid = current_oid it in
  if not (sole_iter it.ct it.token) then raise Concurrent_iterators;
  let v = Object_store.deref (Object_store.open_writable it.ct.txn it.coll.cls oid) in
  let touched = touched_of it in
  if not (Hashtbl.mem touched oid) then
    Hashtbl.replace touched oid (v, snapshot_keys ~skip_immutable:true (all_indexes it.ct it.coll) v);
  v

(** Delete the current object from the collection (and the store); index
    maintenance is deferred to close like any other update. *)
let delete (it : 'a iterator) : unit =
  let oid = current_oid it in
  if not (sole_iter it.ct it.token) then raise Concurrent_iterators;
  let touched = touched_of it in
  let keys =
    match Hashtbl.find_opt touched oid with
    | Some (v, pre) ->
        (* the index holds the pre-update keys; immutable ones were not
           snapshotted and are recomputed from the value *)
        let full = snapshot_keys (all_indexes it.ct it.coll) v in
        List.map (fun (n, k) -> (n, Option.value ~default:k (List.assoc_opt n pre))) full
    | None ->
        let v = Object_store.deref (Object_store.open_writable it.ct.txn it.coll.cls oid) in
        snapshot_keys (all_indexes it.ct it.coll) v
  in
  Hashtbl.remove touched oid;
  it.deleted <- (oid, keys) :: it.deleted

(** Close the iterator and apply all deferred index maintenance. Objects
    whose updates now violate a unique index are removed from the
    collection and reported via {!Unique_violation}. *)
let close (it : 'a iterator) : unit =
  if it.token.it_open then begin
    it.token.it_open <- false;
    it.ct.iters <- List.filter (fun tok -> tok != it.token) it.ct.iters;
    match it.touched with
    | None -> ()
    | Some touched ->
    it.touched <- None;
    let indexes = all_indexes it.ct it.coll in
    (* deletions *)
    List.iter
      (fun (oid, keys) ->
        List.iter
          (fun (im, _, ops) -> Index.delete it.ct.txn ops im.im_anchor ~key:(List.assoc im.im_name keys) ~oid)
          indexes;
        Object_store.remove it.ct.txn oid)
      it.deleted;
    it.deleted <- [];
    (* updates: compare pre/post keys per index *)
    let violators = ref [] in
    Hashtbl.iter
      (fun oid (v, pre_keys) ->
        let post_keys = snapshot_keys indexes v in
        let pre_of im post =
          (* immutable indexes were not snapshotted: their key cannot have
             changed, so the current key doubles as the old one *)
          match List.assoc_opt im.im_name pre_keys with Some k -> k | None -> post
        in
        let changed =
          List.filter_map
            (fun (im, _, ops) ->
              let post = List.assoc im.im_name post_keys in
              let pre = pre_of im post in
              if String.equal pre post then None else Some (im, ops, pre, post))
            indexes
        in
        (* phase 1: retract old keys *)
        List.iter (fun (im, ops, pre, _) -> Index.delete it.ct.txn ops im.im_anchor ~key:pre ~oid) changed;
        (* phase 2: insert new keys; eject the object on a violation *)
        let rec reinsert done_ = function
          | [] -> ()
          | (im, ops, _, post) :: rest -> (
              match Index.insert it.ct.txn ops im.im_anchor ~key:post ~oid with
              | () -> reinsert ((im, ops, post) :: done_) rest
              | exception Index.Duplicate_key { index; _ } ->
                  (* undo this object's phase-2 inserts *)
                  List.iter (fun (im, ops, post) -> Index.delete it.ct.txn ops im.im_anchor ~key:post ~oid) done_;
                  (* retract it from unchanged indexes too *)
                  List.iter
                    (fun (im, _, ops) ->
                      let post = List.assoc im.im_name post_keys in
                      let pre = pre_of im post in
                      if String.equal pre post then Index.delete it.ct.txn ops im.im_anchor ~key:pre ~oid)
                    indexes;
                  Object_store.remove it.ct.txn oid;
                  violators := (index, oid) :: !violators )
        in
        reinsert [] changed)
      touched;
    match !violators with
    | [] -> ()
    | (index, _) :: _ as vs -> raise (Unique_violation { index; removed = List.map snd vs })
  end

(* --- collection-level operations --- *)

(** Insert an object into the collection. Indexes are updated immediately;
    a unique violation raises at once (paper Figure 6) and leaves the
    collection unchanged. Returns the object's id. *)
let insert ct (c : 'a collection) (v : 'a) : oid =
  let indexes = all_indexes ct c in
  let oid = Object_store.insert ct.txn c.cls v in
  let applied = ref [] in
  (try
     List.iter
       (fun (im, g, ops) ->
         let key = Indexer.generic_key_bytes g v in
         Index.insert ct.txn ops im.im_anchor ~key ~oid;
         applied := (im, ops, key) :: !applied)
       indexes
   with Index.Duplicate_key _ as exn ->
     List.iter (fun (im, ops, key) -> Index.delete ct.txn ops im.im_anchor ~key ~oid) !applied;
     Object_store.remove ct.txn oid;
     raise exn);
  oid

(** Number of objects in the collection (maintained by its first index,
    so inserts do not dirty the collection meta-object itself). *)
let size ct (c : 'a collection) : int =
  let m = meta_ro ct c in
  match m.co_indexes with [] -> 0 | im :: _ -> Index.count ct.txn im.im_impl im.im_anchor

(** Create an additional index, populating it from the existing objects.
    Raises {!Index.Duplicate_key} (and drops the half-built index) if a
    unique index would cover duplicate keys (paper Figure 6). *)
let create_index ct (c : 'a collection) (ix : ('a, 'k) Indexer.t) : unit =
  let m = meta_rw ct c in
  if List.exists (fun im -> String.equal im.im_name ix.Indexer.name) m.co_indexes then
    invalid_arg (Printf.sprintf "index %S already exists" ix.Indexer.name);
  register_indexer c ix;
  let anchor = Index.create_anchor ct.txn ix.Indexer.impl in
  let im = { im_name = ix.Indexer.name; im_impl = ix.Indexer.impl; im_unique = ix.Indexer.unique; im_anchor = anchor } in
  let ops = ops_of_generic (Indexer.Generic ix) im in
  (* populate via the first existing index *)
  let first = first_index m in
  let first_ops = ops_of_generic (generic_of c first.im_name) first in
  let members = Index.scan ct.txn first_ops first.im_anchor in
  (try
     List.iter
       (fun oid ->
         let v = Object_store.deref (Object_store.open_readonly ct.txn c.cls oid) in
         Index.insert ct.txn ops anchor ~key:(Indexer.key_bytes ix v) ~oid)
       members
   with Index.Duplicate_key _ as exn ->
     Index.drop ct.txn ops anchor;
     Hashtbl.remove c.indexers ix.Indexer.name;
     raise exn);
  m.co_indexes <- m.co_indexes @ [ im ]

(** Remove an index. Raises {!Last_index} if it is the only one (paper
    Figure 6). *)
let remove_index ct (c : 'a collection) ~(name : string) : unit =
  let m = meta_rw ct c in
  if List.length m.co_indexes <= 1 then raise Last_index;
  let im = find_meta m name in
  let g = generic_of c name in
  Index.drop ct.txn (ops_of_generic g im) im.im_anchor;
  m.co_indexes <- List.filter (fun i -> not (String.equal i.im_name name)) m.co_indexes;
  Hashtbl.remove c.indexers name

(** Remove a named collection along with all objects previously inserted
    into it (paper Figure 5: removeCollection). *)
let remove_collection ct ~(name : string) ~(schema : 'a Obj_class.t) ~(indexers : 'a Indexer.generic list) : unit =
  let c = open_collection ct ~name ~schema in
  List.iter (fun (Indexer.Generic ix) -> register_indexer c ix) indexers;
  let m = meta_ro ct c in
  let first = first_index m in
  let first_ops = ops_of_generic (generic_of c first.im_name) first in
  let members = Index.scan ct.txn first_ops first.im_anchor in
  List.iter (fun oid -> Object_store.remove ct.txn oid) members;
  List.iter
    (fun im ->
      let g = generic_of c im.im_name in
      Index.drop ct.txn (ops_of_generic g im) im.im_anchor)
    m.co_indexes;
  Object_store.remove ct.txn c.coll_oid;
  Object_store.set_root ct.txn (root_name name) None

(* --- transaction termination --- *)

(** Commit the underlying transaction in the requested durability mode.
    Every iterator must be closed first, so that its deferred index
    maintenance has been applied: an open one raises [Invalid_argument]. *)
let commit ?durable (ct : t) : unit =
  if ct.iters <> [] then invalid_arg "Cstore.commit: close all iterators first";
  Object_store.commit ?durable ct.txn

let abort (ct : t) : unit =
  List.iter (fun tok -> tok.it_open <- false) ct.iters;
  ct.iters <- [];
  Object_store.abort ct.txn

(** Run [f] in a collection transaction. *)
let with_ctxn ?durable (os : Object_store.t) (f : t -> 'r) : 'r =
  let ct = begin_ os in
  match f ct with
  | v ->
      commit ?durable ct;
      v
  | exception exn ->
      (try abort ct with _ -> ());
      raise exn
