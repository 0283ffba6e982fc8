(** The object store (paper Section 4): typed, named, transactional storage
    of application objects over the chunk store.

    Design points carried over from the paper:
    - single-object chunks: an object's id *is* its chunk id (Section
      4.2.1);
    - an LRU cache of unpickled objects, pinned while referenced, with
      no-steal buffering of dirty objects (Section 4.2.2);
    - strict two-phase locking with shared/exclusive object locks, lock
      omissions caught by construction (objects are only reachable through
      refs tied to a transaction), deadlocks broken by timeout, and the
      single state mutex released while blocked on a lock (Section 4.2.3);
    - refs are invalidated when their transaction ends; dereferencing a
      stale ref is a checked runtime error (Section 4.1);
    - typed opens are checked against the stored class via type witnesses —
      the C++ RTTI check of the paper;
    - explicit insert/remove rather than persistence-by-reachability, and
      no swizzling: objects refer to each other by [oid] (Section 4.1). *)

open Tdb_chunk

type oid = int

exception Unknown_object of oid
exception Stale_ref
exception Removed_in_transaction of oid

type config = {
  lock_timeout : float; (** seconds before a blocked open raises (deadlock breaking) *)
  locking : bool; (** paper: "the application may even switch off locking" *)
  cache_budget : int; (** object cache budget, bytes *)
}

let default_config = { lock_timeout = 1.0; locking = true; cache_budget = 4 * 1024 * 1024 }

let catalog_cid = 1 (* reserved chunk id holding the named-roots catalog *)

type t = {
  cs : Shard_store.t;
  cfg : config;
  mu : Mutex.t;
  locks : Lock_manager.t;
  cache : Cache.t;
  mutable roots : (string * oid) list;
  mutable next_txn_id : int;
}

type txn_state = Active | Committed | Aborted

let is_active = function Active -> true | Committed | Aborted -> false

type txn = {
  store : t;
  txn_id : int;
  mutable state : txn_state;
  pins : (oid, Cache.entry) Hashtbl.t; (* every object referenced by this txn *)
  writes : (oid, Cache.entry) Hashtbl.t; (* inserted or opened writable *)
  mutable inserted : oid list;
  mutable removed : oid list;
  mutable root_updates : (string * oid option) list;
  mutable alloc_shard : int option; (* shard affinity for this txn's inserts *)
}

(** A smart pointer: valid only while its transaction is active (paper
    Figure 3: "Invalidates ... the Refs generated during it"). The phantom
    parameter distinguishes read-only from writable references. *)
type ('a, 'mode) ref_ = { value : 'a; owner : txn }

type readonly = |
type writable = |

(** Dereference. @raise Stale_ref if the owning transaction has ended. *)
let deref (r : ('a, 'mode) ref_) : 'a =
  if not (is_active r.owner.state) then raise Stale_ref;
  r.value

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* --- named roots catalog --- *)

let encode_roots (roots : (string * oid) list) : string =
  let module P = Tdb_pickle.Pickle in
  let w = P.writer () in
  P.list w
    (fun w (name, oid) ->
      P.string w name;
      P.uint w oid)
    roots;
  P.contents w

let decode_roots (s : string) : (string * oid) list =
  let module P = Tdb_pickle.Pickle in
  let r = P.reader s in
  let roots =
    P.read_list r (fun r ->
        let name = P.read_string r in
        let oid = P.read_uint r in
        (name, oid))
  in
  P.expect_end r;
  roots

(* --- store lifecycle --- *)

let of_shard_store ?(config = default_config) (cs : Shard_store.t) : t =
  let roots = match Shard_store.read cs catalog_cid with s -> decode_roots s | exception Types.Not_written _ -> [] in
  {
    cs;
    cfg = config;
    mu = Mutex.create ();
    locks = Lock_manager.create ();
    cache = Cache.create ~budget:config.cache_budget;
    roots;
    next_txn_id = 1;
  }

let of_chunk_store ?config (cs : Chunk_store.t) : t = of_shard_store ?config (Shard_store.wrap cs)
let chunk_store t = t.cs
let held_count t = with_mu t (fun () -> Lock_manager.held_count t.locks)

(** Run [f] on the underlying chunk store while holding the state mutex,
    serializing it against every transaction. The backup/publish path uses
    this: snapshot creation, archive emission and chain-state commits must
    not interleave with a transaction's own commit. [f] must not call back
    into this object store (the mutex is not reentrant). *)
let with_store t (f : Shard_store.t -> 'a) : 'a = with_mu t (fun () -> f t.cs)

(** Replication ingest hook: run [f] (which may rewrite the store
    arbitrarily, e.g. {!Tdb_backup.Backup_store.apply_stream}) only when
    no transaction is in flight, then discard the object cache and reload
    the named-roots catalog — both may be invalidated by what [f] applied.
    Returns [None] without running [f] if any lock is held (the caller
    retries on its next tick); 2PL plus this quiesce check is what keeps
    follower reads serializable across ingested snapshots. *)
let ingest t (f : Shard_store.t -> 'a) : 'a option =
  with_mu t (fun () ->
      if Lock_manager.held_count t.locks > 0 then None
      else begin
        let r = f t.cs in
        Cache.drop_all t.cache;
        t.roots <-
          (match Shard_store.read t.cs catalog_cid with
          | s -> decode_roots s
          | exception Types.Not_written _ -> []);
        Some r
      end)
let close t = with_mu t (fun () -> Shard_store.close t.cs)
let checkpoint t = with_mu t (fun () -> Shard_store.checkpoint t.cs)
let cache_stats t = Cache.stats t.cache

let chunk_cache_stats t =
  let st = Shard_store.stats t.cs in
  (st.Chunk_store.cache_hits, st.Chunk_store.cache_misses, st.Chunk_store.cache_evictions)

let set_chunk_cache_budget t b =
  with_mu t (fun () ->
      let n = Shard_store.shards t.cs in
      for s = 0 to n - 1 do
        Chunk_store.set_cache_budget (Shard_store.shard_store t.cs s) (b / n)
      done)

(** Committed value of a named root. *)
let get_root t (name : string) : oid option = with_mu t (fun () -> List.assoc_opt name t.roots)

(* --- transactions --- *)

let begin_ (t : t) : txn =
  with_mu t (fun () ->
      let id = t.next_txn_id in
      t.next_txn_id <- t.next_txn_id + 1;
      {
        store = t;
        txn_id = id;
        state = Active;
        pins = Hashtbl.create 16;
        writes = Hashtbl.create 8;
        inserted = [];
        removed = [];
        root_updates = [];
        alloc_shard = None;
      })

let check_active (x : txn) = if not (is_active x.state) then raise Stale_ref

(** Pin this transaction's inserts to one shard (collections use this so
    an object lands with its collection's other rows; [None] restores the
    router's round-robin default). A no-op at one shard. *)
let set_alloc_shard (x : txn) (s : int option) : unit =
  with_mu x.store (fun () ->
      check_active x;
      x.alloc_shard <- s)

let alloc_shard (x : txn) : int option =
  with_mu x.store (fun () ->
      check_active x;
      x.alloc_shard)

let lock x ~oid ~mode =
  if x.store.cfg.locking then
    Lock_manager.acquire x.store.locks ~mu:x.store.mu ~txn:x.txn_id ~oid ~mode
      ~timeout:x.store.cfg.lock_timeout

let pin_entry x (e : Cache.entry) =
  if not (Hashtbl.mem x.pins e.Cache.oid) then begin
    Cache.pin e;
    Hashtbl.replace x.pins e.Cache.oid e
  end

let load t (oid : oid) : Cache.entry =
  match Cache.find t.cache oid with
  | Some e -> e
  | None -> (
      match Shard_store.read t.cs oid with
      | bytes -> Cache.put t.cache oid (Obj_class.unpickle_value bytes) ~size:(String.length bytes)
      | exception Types.Not_written _ -> raise (Unknown_object oid) )

(** Insert a new object; it is immediately locked exclusively, pinned and
    dirty (no-steal: it stays in cache until commit writes it). Returns its
    persistent id. *)
let insert (x : txn) (cls : 'a Obj_class.t) (v : 'a) : oid =
  with_mu x.store (fun () ->
      check_active x;
      let oid = Shard_store.allocate ?shard:x.alloc_shard x.store.cs in
      lock x ~oid ~mode:Lock_manager.Exclusive;
      let e = Cache.put x.store.cache oid (Obj_class.Value (cls, v)) ~size:0 in
      pin_entry x e;
      Hashtbl.replace x.writes oid e;
      x.inserted <- oid :: x.inserted;
      oid)

let open_gen (x : txn) (cls : 'a Obj_class.t) (oid : oid) ~(mode : Lock_manager.mode) : 'a =
  with_mu x.store (fun () ->
      check_active x;
      if List.mem oid x.removed then raise (Removed_in_transaction oid);
      lock x ~oid ~mode;
      let e = load x.store oid in
      pin_entry x e;
      (match mode with Lock_manager.Exclusive -> Hashtbl.replace x.writes oid e | Lock_manager.Shared -> ());
      Obj_class.cast cls e.Cache.value)

(** Open for reading: shared lock, const view. *)
let open_readonly (x : txn) (cls : 'a Obj_class.t) (oid : oid) : ('a, readonly) ref_ =
  { value = open_gen x cls oid ~mode:Lock_manager.Shared; owner = x }

(** Open for writing: exclusive lock; the object becomes part of the
    transaction's write set and will be pickled and committed at commit. *)
let open_writable (x : txn) (cls : 'a Obj_class.t) (oid : oid) : ('a, writable) ref_ =
  { value = open_gen x cls oid ~mode:Lock_manager.Exclusive; owner = x }

(** Replace the stored value of [oid] with [v] wholesale (exclusive lock;
    the object joins the write set exactly as {!open_writable} would).
    Unlike mutating through a writable ref, the caller supplies a complete
    new value — the primitive a network server needs to apply a
    client-supplied state. The class is checked against the stored
    object. *)
let update (x : txn) (cls : 'a Obj_class.t) (oid : oid) (v : 'a) : unit =
  with_mu x.store (fun () ->
      check_active x;
      if List.mem oid x.removed then raise (Removed_in_transaction oid);
      lock x ~oid ~mode:Lock_manager.Exclusive;
      let e = load x.store oid in
      (* class check: updating at the wrong class is the same error as
         opening at the wrong class *)
      ignore (Obj_class.cast cls e.Cache.value);
      pin_entry x e;
      e.Cache.value <- Obj_class.Value (cls, v);
      Hashtbl.replace x.writes oid e)

(** Remove an object from the store; its id is freed at commit. *)
let remove (x : txn) (oid : oid) : unit =
  with_mu x.store (fun () ->
      check_active x;
      if List.mem oid x.removed then raise (Removed_in_transaction oid);
      lock x ~oid ~mode:Lock_manager.Exclusive;
      (* ensure it exists (signals like the chunk layer does) *)
      (match Hashtbl.mem x.writes oid with
      | true -> ()
      | false -> ignore (load x.store oid));
      Hashtbl.remove x.writes oid;
      x.inserted <- List.filter (fun o -> not (Int.equal o oid)) x.inserted;
      x.removed <- oid :: x.removed)

(** Register/overwrite (or with [None], clear) a named root within the
    transaction. *)
let set_root (x : txn) (name : string) (oid : oid option) : unit =
  with_mu x.store (fun () ->
      check_active x;
      x.root_updates <- (name, oid) :: x.root_updates)

(** Root as seen by this transaction (pending updates included). *)
let root (x : txn) (name : string) : oid option =
  with_mu x.store (fun () ->
      check_active x;
      match List.assoc_opt name x.root_updates with
      | Some v -> v
      | None -> List.assoc_opt name x.store.roots)

let finish (x : txn) (st : txn_state) =
  Hashtbl.iter (fun _ e -> Cache.unpin x.store.cache e) x.pins;
  Hashtbl.reset x.pins;
  Lock_manager.release_all x.store.locks ~txn:x.txn_id;
  x.state <- st

(** Commit: pickle the write set, push everything into one atomic chunk
    batch (objects, removals, catalog), and commit it — durably by default
    (paper Figure 3: commit(bool durable)). *)
let commit ?(durable = true) (x : txn) : unit =
  with_mu x.store (fun () ->
      check_active x;
      let t = x.store in
      (try
         Hashtbl.iter
           (fun oid (e : Cache.entry) ->
             let (Obj_class.Value (cls, v)) = e.Cache.value in
             let bytes = Obj_class.pickle_value cls v in
             Shard_store.write t.cs oid bytes;
             Cache.update_size t.cache e ~size:(String.length bytes))
           x.writes;
         List.iter
           (fun oid ->
             Shard_store.deallocate t.cs oid;
             Cache.remove t.cache oid)
           x.removed;
         if x.root_updates <> [] then begin
           let roots =
             List.fold_left
               (fun acc (name, v) ->
                 let acc = List.remove_assoc name acc in
                 match v with Some oid -> (name, oid) :: acc | None -> acc)
               t.roots (List.rev x.root_updates)
           in
           Shard_store.write t.cs catalog_cid (encode_roots roots);
           t.roots <- roots
         end;
         Shard_store.commit ~durable t.cs
       with exn ->
         Shard_store.abort_batch t.cs;
         finish x Aborted;
         (* failed commit behaves like abort: evict dirty objects *)
         Hashtbl.iter (fun oid _ -> Cache.remove t.cache oid) x.writes;
         List.iter (fun oid -> try Shard_store.deallocate t.cs oid with Types.Not_allocated _ -> ()) x.inserted;
         raise exn);
      finish x Committed)

(** Abort: discard the write set. Objects opened for writing are evicted
    from the cache (paper Section 4.2.3) so later reads refetch committed
    state; chunk ids allocated for inserted objects are released. *)
let abort (x : txn) : unit =
  with_mu x.store (fun () ->
      check_active x;
      let t = x.store in
      finish x Aborted;
      Hashtbl.iter (fun oid _ -> Cache.remove t.cache oid) x.writes;
      List.iter (fun oid -> try Shard_store.deallocate t.cs oid with Types.Not_allocated _ -> ()) x.inserted;
      Shard_store.abort_batch t.cs)

(** Durable barrier without a transaction: promote every committed
    nondurable transaction to durable with one sync + one counter bump
    (see {!Shard_store.durable_barrier}). The group-commit coordinator's
    hook into the commit path: sessions commit nondurably under the state
    mutex, then one coordinator thread runs the barrier for all of them.

    The state mutex is {e released} during the physical wait (the staged
    {!Chunk_store.barrier_sync}): that window is exactly where concurrent
    sessions land the nondurable commits the next barrier coalesces —
    holding the mutex through the sync would serialize every commit
    behind the barrier and defeat group commit entirely. The caller (the
    coordinator) guarantees at most one barrier in flight. *)
let durable_barrier (t : t) : unit =
  let tok = with_mu t (fun () -> Shard_store.barrier_begin t.cs) in
  Shard_store.barrier_sync t.cs tok;
  with_mu t (fun () -> Shard_store.barrier_finish t.cs tok)

(** Run [f] in a transaction, committing on success and aborting on
    exception. *)
let with_txn ?durable (t : t) (f : txn -> 'a) : 'a =
  let x = begin_ t in
  match f x with
  | v ->
      commit ?durable x;
      v
  | exception exn ->
      if is_active x.state then abort x;
      raise exn
