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

    Ownership: hit/miss counters and the LRU links mutate on every [find]
    with no synchronization, so all access belongs to the creating domain
    (the chunk store's, under the object store's state mutex).
    [owner_check] asserts it on every mutating entry point, so a foreign
    domain that reaches in dies loudly instead of corrupting the links. *)

type t = {
  owner : int; (* creating domain; see "Ownership" above *)
  lru : (int * string) Lru.t; (* (committed version, payload) *)
}

(* Per-entry bookkeeping overhead charged against the budget, so a flood
   of tiny chunks cannot blow past it on header weight alone. *)
let entry_overhead = 64

let owner_check t = assert (Int.equal ((Domain.self () :> int)) t.owner)

let create ~(budget : int) : t = { owner = (Domain.self () :> int); lru = Lru.create ~budget }

let find t (cid : int) ~(version : int) : string option =
  owner_check t;
  match Lru.find t.lru cid ~valid:(fun (v, _) -> Int.equal v version) with
  | Some e -> Some (snd (Lru.value e))
  | None -> None

let put t (cid : int) ~(version : int) (data : string) : unit =
  owner_check t;
  if Lru.budget t.lru > 0 then
    ignore (Lru.put t.lru cid (version, data) ~size:(String.length data + entry_overhead))

let remove t (cid : int) : unit =
  owner_check t;
  Lru.remove t.lru cid

let stats t = Lru.stats t.lru
let resident t = Lru.resident t.lru
let total_size t = Lru.total_size t.lru
let budget t = Lru.budget t.lru

let set_budget t b =
  owner_check t;
  Lru.set_budget t.lru b
