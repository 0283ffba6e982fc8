(** LRU cache of decrypted, hash-verified chunk payloads, below the object
    cache and above the log (see DESIGN.md, "Caching").

    Entries are keyed by chunk id and carry the committed version (the
    commit sequence number baked into the chunk's location-map entry).
    A lookup hits only when the cached version equals the version the
    location map currently holds, so a stale entry can never be served:
    whatever path changed the mapping — write, deallocate, recovery — the
    version comparison rejects the leftover. Cleaning relocates ciphertext
    verbatim (seg/off change, version and hash do not), so cached entries
    survive a [clean_pass] untouched.

    Trust note: the cache stores only plaintext that already passed the
    Merkle-path check, inside the trusted boundary; it never caches
    ciphertext or unvalidated bytes.

    Ownership: the cache is {e single-writer by design} — hit/miss
    counters and the LRU links mutate on every [find], with no internal
    synchronization. All access belongs to the domain that created the
    cache (the chunk store's, under the object store's state mutex).
    [owner_check] pins that discipline: every mutating entry point
    asserts it runs on the creating domain, so a foreign domain that
    reaches in dies loudly instead of corrupting the links. *)

type entry = {
  cid : int;
  mutable version : int;
  mutable data : string;
  mutable prev : entry option; (* towards MRU *)
  mutable next : entry option; (* towards LRU *)
}

type t = {
  owner : int; (* creating domain; see "Ownership" above *)
  table : (int, entry) Hashtbl.t;
  mutable mru : entry option;
  mutable lru : entry option;
  mutable total_size : int;
  mutable budget : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

(* Per-entry bookkeeping overhead charged against the budget, so a flood
   of tiny chunks cannot blow past it on header weight alone. *)
let entry_overhead = 64

let entry_size e = String.length e.data + entry_overhead

let owner_check t = assert (Int.equal ((Domain.self () :> int)) t.owner)

let create ~(budget : int) : t =
  {
    owner = (Domain.self () :> int);
    table = Hashtbl.create 256;
    mru = None;
    lru = None;
    total_size = 0;
    budget;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.mru <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.lru <- e.prev);
  e.prev <- None;
  e.next <- None

let push_mru t e =
  e.next <- t.mru;
  e.prev <- None;
  (match t.mru with Some m -> m.prev <- Some e | None -> t.lru <- Some e);
  t.mru <- Some e

let touch t e =
  unlink t e;
  push_mru t e

let drop t e =
  unlink t e;
  Hashtbl.remove t.table e.cid;
  t.total_size <- t.total_size - entry_size e

let evict_until_within t =
  while t.total_size > t.budget && t.lru <> None do
    (match t.lru with
    | Some e ->
        drop t e;
        t.evictions <- t.evictions + 1
    | None -> ())
  done

let find t (cid : int) ~(version : int) : string option =
  owner_check t;
  match Hashtbl.find_opt t.table cid with
  | Some e when Int.equal e.version version ->
      t.hits <- t.hits + 1;
      touch t e;
      Some e.data
  | Some e ->
      (* stale version: the mapping moved on without us; drop the corpse *)
      t.misses <- t.misses + 1;
      drop t e;
      None
  | None ->
      t.misses <- t.misses + 1;
      None

let put t (cid : int) ~(version : int) (data : string) : unit =
  owner_check t;
  if t.budget <= 0 then ()
  else begin
    (match Hashtbl.find_opt t.table cid with
    | Some e ->
        t.total_size <- t.total_size - entry_size e;
        e.version <- version;
        e.data <- data;
        t.total_size <- t.total_size + entry_size e;
        touch t e
    | None ->
        let e = { cid; version; data; prev = None; next = None } in
        Hashtbl.replace t.table cid e;
        push_mru t e;
        t.total_size <- t.total_size + entry_size e);
    evict_until_within t
  end

let remove t (cid : int) : unit =
  owner_check t;
  match Hashtbl.find_opt t.table cid with None -> () | Some e -> drop t e

let clear t : unit =
  owner_check t;
  Hashtbl.reset t.table;
  t.mru <- None;
  t.lru <- None;
  t.total_size <- 0

let stats t = (t.hits, t.misses, t.evictions)
let resident t = Hashtbl.length t.table
let total_size t = t.total_size
let budget t = t.budget

let set_budget t b =
  owner_check t;
  t.budget <- b;
  evict_until_within t
