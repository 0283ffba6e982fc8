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
      single state mutex released while blocked on a lock (Section 4.2.3).
      A locked object is pinned in the cache (Section 4.2.2), so its lock
      is one word on its cache entry, with no lock table beside the cache
      (see "Locks" below);
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
  locks : Lock_manager.t; (* where a blocked grant waits *)
  mutable held : int; (* nonzero lock words *)
  mutable acquired : int; (* grants that changed a lock word *)
  cache : Obj_class.packed_value Lru.t;
  mutable roots : (string * oid) list;
  mutable next_txn_id : int;
}

type txn_state = Active | Committed | Aborted

let is_active = function Active -> true | Committed | Aborted -> false

(* What commit does to an oid in a transaction's write set: [Remove]
   covers written-then-removed, [Insert_remove] inserted-then-removed. *)
type change = Write | Insert | Remove | Insert_remove

type txn = {
  store : t;
  txn_id : int;
  mutable state : txn_state;
  pins : Obj_class.packed_value Lru.entry Int_table.t;
      (* every object this txn locked and pinned, keyed by oid, or by
         [lnot oid] once removed, so a lookup by oid misses it *)
  changes : (oid, change) Hashtbl.t;
      (* the write set; polymorphic on purpose: its iteration order is
         the order of the batch's writes, and so of their IVs *)
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

(* One cache per object store: the object cache takes the chunk tier's
   budget, since its hit also skips unpickling. *)
let of_shard_store ?(config = default_config) (cs : Chunk_store.t) : t =
  let roots = match Chunk_store.read cs catalog_cid with s -> decode_roots s | exception Types.Not_written _ -> [] in
  let budget = config.cache_budget + Chunk_store.cache_budget cs in
  Chunk_store.set_cache_budget cs 0;
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
    held = 0;
    acquired = 0;
    cache = Lru.create ~budget;
    roots;
    next_txn_id = 1;
  }

let chunk_store t = t.cs
let held_count t = with_mu t (fun () -> t.held)

(** Run [f] on the underlying chunk store while holding the state mutex,
    serializing it against every transaction. The backup path uses
    this: snapshot creation, archive emission and chain-state commits must
    not interleave with a transaction's own commit. [f] must not call back
    into this object store (the mutex is not reentrant). *)
let with_store t (f : Chunk_store.t -> 'a) : 'a = with_quiet t (fun () -> f t.cs)

(* 2PL plus the quiesce check is what keeps follower reads serializable
   across ingested snapshots. *)
let ingest t (f : Chunk_store.t -> 'a * oid list option) : 'a option =
  with_quiet t (fun () ->
      if t.held > 0 then None
      else begin
        let r, changed = f t.cs in
        (match changed with None -> Lru.drop_all t.cache | Some oids -> List.iter (Lru.remove t.cache) oids);
        t.roots <-
          (match Chunk_store.read t.cs catalog_cid with
          | s -> decode_roots s
          | exception Types.Not_written _ -> []);
        Some r
      end)
let close t = with_quiet t (fun () -> Chunk_store.close t.cs)
let checkpoint t = with_quiet t (fun () -> Chunk_store.checkpoint t.cs)
let cache_stats t = Lru.stats t.cache

let lock_audit t =
  with_mu t (fun () ->
      Lru.fold
        (fun e ((words, unpinned) as acc) ->
          if Int.equal (Lru.lock e) 0 then acc else (words + 1, if Lru.pinned e then unpinned else unpinned + 1))
        t.cache (0, 0))

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
          ("object_cache.budget_bytes", Int (Lru.budget t.cache));
          ("locks.held", Int t.held);
          ("locks.acquired", Int t.acquired);
          ("locks.waits", Int (Lock_manager.waits t.locks));
          ("locks.timeouts", Int (Lock_manager.timeouts t.locks));
          ("group_commit.barriers", Int t.barriers);
          ("group_commit.coalesced", Int t.coalesced);
        ])

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
        changes = Hashtbl.create 8;
        root_updates = [];
      })

let check_active (x : txn) = if not (is_active x.state) then raise Stale_ref

let load t (oid : oid) : Obj_class.packed_value Lru.entry =
  match Lru.find t.cache oid with
  | Some e -> e
  | None -> (
      match Chunk_store.read t.cs oid with
      | bytes -> Lru.put t.cache oid (Obj_class.unpickle_value bytes) ~size:(String.length bytes)
      | exception Types.Not_written _ -> raise (Unknown_object oid) )

(* --- locks ---

   An object's lock is one word on its cache entry ([Lru.lock]): 0 is
   free, a transaction id (ids start at 1) is held exclusive by that
   transaction, and -n is held shared by n transactions. A transaction
   pins every entry it locks, in the same critical section, and unpins
   it only in [finish], which releases the lock in the same loop. So a
   nonzero word implies a pinned entry (a pinned entry is never evicted,
   so the word cannot vanish with it), and a pin implies the transaction
   holds the lock at least shared: re-entrance and the upgrade are
   decided from [pins] plus the word, with no lock table. An uncontended
   grant or release is a few field writes on the entry the one
   [Lru.find] returned. *)

(* Grant [mode] on [e] to [x] if the word allows it. [pinned]: [x]
   already holds [e], so at least shared; the upgrade needs it to be the
   sole shared holder. *)
let grant x e ~(mode : Lock_manager.mode) ~pinned =
  let t = x.store and w = Lru.lock e in
  match mode with
  | Lock_manager.Shared when w > 0 -> false
  | Lock_manager.Shared ->
      if Int.equal w 0 then t.held <- t.held + 1;
      Lru.set_lock e (w - 1);
      t.acquired <- t.acquired + 1;
      true
  | Lock_manager.Exclusive ->
      if Int.equal w x.txn_id then true
      else if Int.equal w 0 || (pinned && Int.equal w (-1)) then begin
        if Int.equal w 0 then t.held <- t.held + 1;
        Lru.set_lock e x.txn_id;
        t.acquired <- t.acquired + 1;
        true
      end
      else false

(* Drop one transaction's hold on [e], which it pinned: at least shared,
   and exclusive if the word is positive. *)
let release t e =
  let w = Lru.lock e in
  if w < 0 then begin
    Lru.set_lock e (w + 1);
    if Int.equal w (-1) then t.held <- t.held - 1
  end
  else if w > 0 then begin
    Lru.set_lock e 0;
    t.held <- t.held - 1
  end

(* Lock [oid] at [mode] for [x] and pin it, returning its entry; an
   exclusive lock adds it to the write set. It is loaded first, so an
   unknown oid raises before anything is granted. A grant that must wait
   re-resolves the oid through the cache after every wake: an aborting
   writer drops its entry. [pinned]: [x] has pinned [oid] already. *)
let hold x oid ~mode ~pinned =
  let t = x.store in
  let e = load t oid in
  let e =
    if (not t.cfg.locking) || grant x e ~mode ~pinned then e
    else
      Lock_manager.wait_for t.locks ~mu:t.mu ~txn:x.txn_id ~oid ~timeout:t.cfg.lock_timeout (fun () ->
          let e = load t oid in
          if grant x e ~mode ~pinned then Some e else None)
  in
  if not pinned then begin
    Lru.pin e;
    Int_table.replace x.pins oid e
  end;
  (match mode with Lock_manager.Exclusive -> Hashtbl.replace x.changes oid Write | Lock_manager.Shared -> ());
  e

(* [oid] locked at [mode] by [x]. A re-open is answered from [x]'s own
   tables: a pinned oid is held at least shared, and exclusive if it is
   in the write set; only an upgrade goes back to the lock word. A
   removed oid is pinned under [lnot oid], so only a first open in a
   transaction with a nonempty write set looks for it. *)
let entry_at x oid ~(mode : Lock_manager.mode) =
  match Int_table.find_opt x.pins oid with
  | Some e when (match mode with Lock_manager.Shared -> true | Lock_manager.Exclusive -> Hashtbl.mem x.changes oid) -> e
  | Some _ -> hold x oid ~mode ~pinned:true
  | None ->
      if Hashtbl.length x.changes > 0 && Int_table.mem x.pins (lnot oid) then raise (Removed_in_transaction oid);
      hold x oid ~mode ~pinned:false

(** Insert a new object; it is immediately locked exclusively, pinned and
    dirty (no-steal: it stays in cache until commit writes it). Returns its
    persistent id. A fresh oid has no entry, so nobody else holds its
    lock. *)
let insert (x : txn) (cls : 'a Obj_class.t) (v : 'a) : oid =
  with_mu x.store (fun () ->
      check_active x;
      let oid = Chunk_store.allocate x.store.cs in
      let e = Lru.put x.store.cache oid (Obj_class.Value (cls, v)) ~size:0 in
      if x.store.cfg.locking then ignore (grant x e ~mode:Lock_manager.Exclusive ~pinned:false);
      Lru.pin e;
      Int_table.replace x.pins oid e;
      Hashtbl.replace x.changes oid Insert;
      oid)

let open_gen (x : txn) (cls : 'a Obj_class.t) (oid : oid) ~(mode : Lock_manager.mode) : 'a =
  with_mu x.store (fun () ->
      check_active x;
      Obj_class.cast cls (Lru.value (entry_at x oid ~mode)))

(** Open for reading: shared lock, const view. *)
let open_readonly (x : txn) (cls : 'a Obj_class.t) (oid : oid) : ('a, readonly) ref_ =
  { value = open_gen x cls oid ~mode:Lock_manager.Shared; owner = x }

(** Open for writing: exclusive lock; the object becomes part of the
    transaction's write set and will be pickled and committed at commit. *)
let open_writable (x : txn) (cls : 'a Obj_class.t) (oid : oid) : ('a, writable) ref_ =
  { value = open_gen x cls oid ~mode:Lock_manager.Exclusive; owner = x }

(** Remove an object from the store; its id is freed at commit. It is
    locked exclusive and pinned like an open, so it must exist, and
    [finish] releases it. An abort drops it from the cache, as it may have
    been written first, and frees its id if this transaction inserted it. *)
let remove (x : txn) (oid : oid) : unit =
  with_mu x.store (fun () ->
      check_active x;
      let e = entry_at x oid ~mode:Lock_manager.Exclusive in
      let change = match Hashtbl.find x.changes oid with Insert -> Insert_remove | Write | Remove | Insert_remove -> Remove in
      Hashtbl.replace x.changes oid change;
      Int_table.remove x.pins oid;
      Int_table.replace x.pins (lnot oid) e)

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

(* Strict two-phase locking: every lock is released at the end, in the
   loop that unpins. An entry a commit dropped from the cache (a removed
   object) is released all the same: nobody can find it any more, and a
   waiter re-resolves its oid. *)
let finish (x : txn) (st : txn_state) =
  let t = x.store in
  Int_table.iter
    (fun _ e ->
      release t e;
      Lru.unpin t.cache e)
    x.pins;
  Int_table.reset x.pins;
  Lock_manager.wake t.locks;
  x.state <- st

(* End [x] undoing all it did, for an abort and a failed commit alike:
   drop every object in its write set from the cache (paper Section
   4.2.3) and free every id it inserted (a failed commit may have freed
   an inserted-then-removed one already). *)
let discard (x : txn) =
  let t = x.store in
  Chunk_store.abort_batch t.cs;
  finish x Aborted;
  Hashtbl.iter
    (fun oid change ->
      Lru.remove t.cache oid;
      match change with
      | Insert | Insert_remove -> ( try Chunk_store.deallocate t.cs oid with Types.Not_allocated _ -> ())
      | Write | Remove -> ())
    x.changes

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
          Hashtbl.iter
            (fun oid change ->
              match change with
              | Write | Insert ->
                  let e = Int_table.find x.pins oid in
                  let (Obj_class.Value (cls, v)) = Lru.value e in
                  let bytes = Obj_class.pickle_value cls v in
                  Chunk_store.write t.cs oid bytes;
                  Lru.update_size t.cache e ~size:(String.length bytes)
              | Remove | Insert_remove ->
                  Chunk_store.deallocate t.cs oid;
                  Lru.remove t.cache oid)
            x.changes;
          if x.root_updates <> [] then begin
            let roots =
              List.fold_left
                (fun acc (name, v) ->
                  let acc = List.remove_assoc name acc in
                  match v with Some oid -> (name, oid) :: acc | None -> acc)
                t.roots (List.rev x.root_updates)
            in
            Chunk_store.write t.cs catalog_cid (encode_roots roots);
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
          discard x;
          raise exn
      in
      finish x Committed;
      match landing with
      | Done -> ()
      | Wait -> await_covered t t.next_ticket
      | Lead tok ->
          t.coalesced <- t.coalesced + 1;
          run_barrier t tok)

(** Abort: discard the write set (see [discard]). *)
let abort (x : txn) : unit =
  with_mu x.store (fun () ->
      check_active x;
      discard x)

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
