(** The object store (paper Section 4): typed, named, transactional storage
    of application objects over the chunk store.

    Design points carried over from the paper:
    - single-object chunks: an object's id *is* its chunk id (Section
      4.2.1);
    - an LRU cache of unpickled objects, pinned while referenced, with
      no-steal buffering of dirty objects (Section 4.2.2). It is a
      {!Tdb_chunk.Lru} keyed by oid and charged each object's last
      pickled size; the verified-chunk cache below runs on the same
      structure;
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
  cs : Chunk_store.t;
  cfg : config;
  mu : Mutex.t;
  quiet : Condition.t; (* signalled when a barrier stops syncing *)
  mutable syncing : bool; (* a barrier syncs outside [mu] *)
  mutable next_ticket : int; (* tickets issued: durable points waiting for a barrier *)
  mutable covered : int; (* every ticket below this is durable *)
  mutable poisoned : exn option; (* a barrier's sync raised *)
  mutable barriers : int; (* barriers that landed *)
  mutable coalesced : int; (* durable commits those barriers covered *)
  locks : Lock_manager.t;
  cache : Obj_class.packed_value Lru.t;
  mutable roots : (string * oid) list;
  mutable next_txn_id : int;
}

type txn_state = Active | Committed | Aborted

let is_active = function Active -> true | Committed | Aborted -> false

type txn = {
  store : t;
  txn_id : int;
  mutable state : txn_state;
  pins : Obj_class.packed_value Lru.entry Int_table.t; (* every object referenced by this txn *)
  writes : (oid, Obj_class.packed_value Lru.entry) Hashtbl.t;
      (* inserted or opened writable; polymorphic on purpose: its iteration
         order is the order of the batch's writes, and so of their IVs *)
  mutable locked : oid list; (* every oid this txn acquired, for release *)
  mutable inserted : oid list;
  mutable removed : oid list;
  mutable root_updates : (string * oid option) list;
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

(* The gate keeping one durable point in flight: while a barrier syncs
   outside [mu], whatever else may make a durable point waits here,
   releasing [mu]. Caller holds [mu]. *)
let await_quiet t =
  while t.syncing do
    Condition.wait t.quiet t.mu
  done

let with_quiet t f = with_mu t (fun () -> await_quiet t; f ())

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

let of_shard_store ?(config = default_config) (cs : Chunk_store.t) : t =
  let roots = match Chunk_store.read cs catalog_cid with s -> decode_roots s | exception Types.Not_written _ -> [] in
  {
    cs;
    cfg = config;
    mu = Mutex.create ();
    quiet = Condition.create ();
    syncing = false;
    next_ticket = 0;
    covered = 0;
    poisoned = None;
    barriers = 0;
    coalesced = 0;
    locks = Lock_manager.create ();
    cache = Lru.create ~budget:config.cache_budget;
    roots;
    next_txn_id = 1;
  }

let chunk_store t = t.cs
let held_count t = with_mu t (fun () -> Lock_manager.held_count t.locks)

(** Run [f] on the underlying chunk store while holding the state mutex,
    serializing it against every transaction. The backup path uses
    this: snapshot creation, archive emission and chain-state commits must
    not interleave with a transaction's own commit. [f] must not call back
    into this object store (the mutex is not reentrant). *)
let with_store t (f : Chunk_store.t -> 'a) : 'a = with_quiet t (fun () -> f t.cs)

(** Replication ingest hook: run [f] (which may rewrite the store
    arbitrarily, e.g. {!Tdb_backup.Backup_store.apply_stream}) only when
    no transaction is in flight, then discard the object cache and reload
    the named-roots catalog — both may be invalidated by what [f] applied.
    Returns [None] without running [f] if any lock is held (the caller
    retries on its next tick); 2PL plus this quiesce check is what keeps
    follower reads serializable across ingested snapshots. *)
let ingest t (f : Chunk_store.t -> 'a) : 'a option =
  with_quiet t (fun () ->
      if Lock_manager.held_count t.locks > 0 then None
      else begin
        let r = f t.cs in
        Lru.drop_all t.cache;
        t.roots <-
          (match Chunk_store.read t.cs catalog_cid with
          | s -> decode_roots s
          | exception Types.Not_written _ -> []);
        Some r
      end)
let close t = with_quiet t (fun () -> Chunk_store.close t.cs)
let checkpoint t = with_quiet t (fun () -> Chunk_store.checkpoint t.cs)
let cache_stats t = Lru.stats t.cache

let metrics t : Metrics.t =
  with_mu t (fun () ->
      let hits, misses, evictions = Lru.stats t.cache in
      Metrics.
        [
          ("object_cache.hits", Int hits);
          ("object_cache.misses", Int misses);
          ("object_cache.evictions", Int evictions);
          ("object_cache.resident", Int (Lru.resident t.cache));
          ("object_cache.bytes", Int (Lru.total_size t.cache));
          ("locks.held", Int (Lock_manager.held_count t.locks));
          ("group_commit.barriers", Int t.barriers);
          ("group_commit.coalesced", Int t.coalesced);
        ])

let chunk_cache_stats t =
  let st = Chunk_store.stats t.cs in
  (st.Chunk_store.cache_hits, st.Chunk_store.cache_misses, st.Chunk_store.cache_evictions)

let set_chunk_cache_budget t b = with_mu t (fun () -> Chunk_store.set_cache_budget t.cs b)

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
        pins = Int_table.create 16;
        writes = Hashtbl.create 8;
        locked = [];
        inserted = [];
        removed = [];
        root_updates = [];
      })

let check_active (x : txn) = if not (is_active x.state) then raise Stale_ref

let lock x ~oid ~mode =
  if x.store.cfg.locking then begin
    Lock_manager.acquire x.store.locks ~mu:x.store.mu ~txn:x.txn_id ~oid ~mode
      ~timeout:x.store.cfg.lock_timeout;
    x.locked <- oid :: x.locked
  end

let pin_entry x oid e =
  if not (Int_table.mem x.pins oid) then begin
    Lru.pin e;
    Int_table.replace x.pins oid e
  end

let load t (oid : oid) : Obj_class.packed_value Lru.entry =
  match Lru.find t.cache oid with
  | Some e -> e
  | None -> (
      match Chunk_store.read t.cs oid with
      | bytes -> Lru.put t.cache oid (Obj_class.unpickle_value bytes) ~size:(String.length bytes)
      | exception Types.Not_written _ -> raise (Unknown_object oid) )

(** Insert a new object; it is immediately locked exclusively, pinned and
    dirty (no-steal: it stays in cache until commit writes it). Returns its
    persistent id. *)
let insert (x : txn) (cls : 'a Obj_class.t) (v : 'a) : oid =
  with_mu x.store (fun () ->
      check_active x;
      let oid = Chunk_store.allocate x.store.cs in
      lock x ~oid ~mode:Lock_manager.Exclusive;
      let e = Lru.put x.store.cache oid (Obj_class.Value (cls, v)) ~size:0 in
      pin_entry x oid e;
      Hashtbl.replace x.writes oid e;
      x.inserted <- oid :: x.inserted;
      oid)

(* Whether a pinned [oid] is already locked at [mode] by this transaction:
   a pinned oid is locked at least shared, and one in [writes] exclusive. *)
let pinned_at x oid ~mode =
  match mode with Lock_manager.Shared -> true | Lock_manager.Exclusive -> Hashtbl.mem x.writes oid

(* A re-open is answered from the transaction's own tables, with no lock
   request, cache probe or pin. Only a shared-to-exclusive upgrade goes
   back to the lock manager. *)
let open_gen (x : txn) (cls : 'a Obj_class.t) (oid : oid) ~(mode : Lock_manager.mode) : 'a =
  with_mu x.store (fun () ->
      check_active x;
      if List.mem oid x.removed then raise (Removed_in_transaction oid);
      let e =
        match Int_table.find_opt x.pins oid with
        | Some e when pinned_at x oid ~mode -> e
        | Some _ | None ->
            lock x ~oid ~mode;
            let e = load x.store oid in
            pin_entry x oid e;
            (match mode with Lock_manager.Exclusive -> Hashtbl.replace x.writes oid e | Lock_manager.Shared -> ());
            e
      in
      Obj_class.cast cls (Lru.value e))

(** Open for reading: shared lock, const view. *)
let open_readonly (x : txn) (cls : 'a Obj_class.t) (oid : oid) : ('a, readonly) ref_ =
  { value = open_gen x cls oid ~mode:Lock_manager.Shared; owner = x }

(** Open for writing: exclusive lock; the object becomes part of the
    transaction's write set and will be pickled and committed at commit. *)
let open_writable (x : txn) (cls : 'a Obj_class.t) (oid : oid) : ('a, writable) ref_ =
  { value = open_gen x cls oid ~mode:Lock_manager.Exclusive; owner = x }

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
  Int_table.iter (fun _ e -> Lru.unpin x.store.cache e) x.pins;
  Int_table.reset x.pins;
  Lock_manager.release_all x.store.locks ~txn:x.txn_id ~oids:x.locked;
  x.locked <- [];
  x.state <- st

(* --- group commit ---

   A durable point costs a log force plus a one-way-counter bump (paper
   Section 3.1.2), so concurrent durable commits share them. One barrier
   at a time syncs outside [mu]; a durable commit arriving meanwhile
   lands nondurably, takes a ticket and waits until a barrier covers it.
   Tickets are taken under [mu] after the commit landed, so a barrier
   that claims [next_ticket] as it begins covers every ticket below. A
   leader takes a ticket for its own batch too: its locks are released
   before its sync, and a durable commit that read its writes waits for
   that ticket. Callers hold [mu]. *)

let check_poison t = match t.poisoned with Some exn -> raise exn | None -> ()

(* Land the barrier [tok] begun under [mu]: sync and bump outside [mu],
   then finish back under it. A failed sync poisons the store: every
   later durable point raises the same exception instead of claiming
   durability. *)
let run_barrier t tok =
  let claim = t.next_ticket in
  t.syncing <- true;
  Mutex.unlock t.mu;
  let failed = match Chunk_store.barrier_sync t.cs tok with () -> None | exception exn -> Some exn in
  Mutex.lock t.mu;
  t.syncing <- false;
  Condition.broadcast t.quiet;
  match failed with
  | None ->
      Chunk_store.barrier_finish t.cs tok;
      t.covered <- claim;
      t.barriers <- t.barriers + 1
  | Some exn ->
      t.poisoned <- Some exn;
      raise exn

(* Wait until every ticket below [upto] is durable, leading a barrier
   whenever none is syncing. *)
let rec await_covered t upto =
  if t.covered < upto then begin
    check_poison t;
    if t.syncing then Condition.wait t.quiet t.mu else run_barrier t (Chunk_store.barrier_begin t.cs);
    await_covered t upto
  end

(* What a commit does once it has landed: nothing more, wait for a
   barrier to cover the tickets issued so far, or lead the barrier that
   carries its batch. *)
type landing = Done | Wait | Lead of Chunk_store.barrier_token

(** Commit: pickle the write set, push everything into one atomic chunk
    batch (objects, removals, catalog), and commit it — durably by default
    (paper Figure 3: commit(bool durable)). A durable commit leads a
    barrier that carries its batch, or, while one syncs, lands nondurably
    and waits for the next; either way its locks are released once it has
    landed. *)
let commit ?(durable = true) (x : txn) : unit =
  with_mu x.store (fun () ->
      let t = x.store in
      check_active x;
      let landing =
        try
          if durable then check_poison t;
          (* [~kept]: the object cache holds these objects and [t.roots]
             the catalog, so the chunk cache need not hold their bytes *)
          Hashtbl.iter
            (fun oid e ->
              let (Obj_class.Value (cls, v)) = Lru.value e in
              let bytes = Obj_class.pickle_value cls v in
              Chunk_store.write ~kept:true t.cs oid bytes;
              Lru.update_size t.cache e ~size:(String.length bytes))
            x.writes;
          List.iter
            (fun oid ->
              Chunk_store.deallocate t.cs oid;
              Lru.remove t.cache oid)
            x.removed;
          if x.root_updates <> [] then begin
            let roots =
              List.fold_left
                (fun acc (name, v) ->
                  let acc = List.remove_assoc name acc in
                  match v with Some oid -> (name, oid) :: acc | None -> acc)
                t.roots (List.rev x.root_updates)
            in
            Chunk_store.write ~kept:true t.cs catalog_cid (encode_roots roots);
            t.roots <- roots
          end;
          if not durable then begin
            Chunk_store.commit ~durable t.cs;
            Done
          end
          else if Int.equal (Chunk_store.batch_size t.cs) 0 then Wait (* for earlier tickets only *)
          else if t.syncing then begin
            Chunk_store.commit ~durable:false t.cs;
            t.next_ticket <- t.next_ticket + 1;
            t.coalesced <- t.coalesced + 1;
            Wait
          end
          else begin
            let tok = Chunk_store.barrier_begin t.cs in
            t.next_ticket <- t.next_ticket + 1;
            Lead tok
          end
        with exn ->
          Chunk_store.abort_batch t.cs;
          finish x Aborted;
          (* failed commit behaves like abort: evict dirty objects *)
          Hashtbl.iter (fun oid _ -> Lru.remove t.cache oid) x.writes;
          List.iter (fun oid -> try Chunk_store.deallocate t.cs oid with Types.Not_allocated _ -> ()) x.inserted;
          raise exn
      in
      finish x Committed;
      match landing with
      | Done -> ()
      | Wait -> await_covered t t.next_ticket
      | Lead tok ->
          t.coalesced <- t.coalesced + 1;
          run_barrier t tok)

(** Abort: discard the write set. Objects opened for writing are evicted
    from the cache (paper Section 4.2.3) so later reads refetch committed
    state; chunk ids allocated for inserted objects are released. *)
let abort (x : txn) : unit =
  with_mu x.store (fun () ->
      check_active x;
      let t = x.store in
      finish x Aborted;
      Hashtbl.iter (fun oid _ -> Lru.remove t.cache oid) x.writes;
      List.iter (fun oid -> try Chunk_store.deallocate t.cs oid with Types.Not_allocated _ -> ()) x.inserted;
      Chunk_store.abort_batch t.cs)

(** Durable barrier without a transaction: promote every committed
    nondurable transaction to durable with one sync + one counter bump
    (see {!Chunk_store.durable_barrier}), or wait for a barrier that
    begins after this call — the same routine as a durable commit with
    an empty batch that takes a ticket. *)
let durable_barrier (t : t) : unit =
  with_mu t (fun () ->
      t.next_ticket <- t.next_ticket + 1;
      await_covered t t.next_ticket)

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
