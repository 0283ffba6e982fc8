(** The verified-chunk cache: an {!Lru} of decrypted, hash-verified
    payloads plus the chunk tier's policy (see chunk_cache.mli and
    DESIGN.md, "Caching").

    Entries carry the committed version (the commit sequence number baked
    into the chunk's location-map entry), and a lookup hits only at the
    version the location map currently holds: whatever path changed the
    mapping — write, deallocate, recovery — the comparison rejects the
    leftover, while cleaning (which moves ciphertext but keeps versions)
    costs nothing. Only plaintext that already passed the Merkle-path
    check enters, inside the trusted boundary.

    Hit/miss counters and the LRU links mutate on every [find] with no
    synchronization of their own: the cache is reached only through its
    chunk store, under the object store's state mutex. *)

type t = (int * string) Lru.t (* (committed version, payload) *)

(* Per-entry bookkeeping overhead charged against the budget, so a flood
   of tiny chunks cannot blow past it on header weight alone. *)
let entry_overhead = 64

let create ~(budget : int) : t = Lru.create ~budget

let find t (cid : int) ~(version : int) : string option =
  match Lru.find t cid ~valid:(fun (v, _) -> Int.equal v version) with
  | Some e -> Some (snd (Lru.value e))
  | None -> None

(* A payload charged more than the whole budget is not cached (the LRU
   would keep it over budget until the next put); an older version of
   it goes. This also makes a budget of 0 cache nothing. *)
let put t (cid : int) ~(version : int) (data : string) : unit =
  let size = String.length data + entry_overhead in
  if size > Lru.budget t then Lru.remove t cid else ignore (Lru.put t cid (version, data) ~size)

let remove t (cid : int) : unit = Lru.remove t cid
let stats = Lru.stats
let resident = Lru.resident
let total_size = Lru.total_size
let budget = Lru.budget
let set_budget = Lru.set_budget
