(** A byte-budgeted LRU map from int keys to values, with pin counts.

    Both cache tiers run on it (see DESIGN.md, "Caching"): the object
    store keeps unpickled objects in one, pinned while a transaction
    references them (no-steal, paper Section 4.2.2); {!Chunk_cache} keeps
    verified chunk payloads in one and adds its version guard on top.

    Every entry is charged the [size] its caller gives it. Whenever the
    total exceeds the budget, eviction walks from the least recently used
    end and drops unpinned entries until the total fits or no entry is
    left to walk. A pinned entry the walk meets is parked: taken off the
    list (it stays in the map and is still found) until its last
    {!unpin}, so a walk costs the entries it evicts or parks and passes a
    pinned entry at most once per pin period. [pin], and [unpin] of an
    entry that is not parked, make no list operation of their own. The
    total may exceed the budget only by pinned entries plus the entry
    just put. The structure is unsynchronized: callers serialize
    access. *)

type 'v entry
type 'v t

val create : budget:int -> 'v t

val value : 'v entry -> 'v

val find : ?valid:('v -> bool) -> 'v t -> int -> 'v entry option
(** A hit moves the entry to the MRU end, or leaves a parked entry
    parked. An entry whose value fails [valid] is dropped and counted as
    a miss, not as an eviction. *)

val put : 'v t -> int -> 'v -> size:int -> 'v entry
(** Insert, or replace the value and size of the entry already there (its
    pins are kept). Eviction runs before the entry joins the MRU end (a
    parked entry stays parked), so a put never evicts its own entry: one
    larger than the budget stays until the next walk. *)

val pin : 'v entry -> unit

val unpin : 'v t -> 'v entry -> unit
(** Drop one pin. At the last one a parked entry re-enters at the MRU
    end; then eviction runs if over budget.
    @raise Invalid_argument if the entry is not pinned. *)

val remove : 'v t -> int -> unit
(** Drop the entry for a key, pinned or not. Not counted as an eviction. *)

val update_size : 'v t -> 'v entry -> size:int -> unit
(** Re-charge an entry, then evict if now over budget. *)

val drop_all : 'v t -> unit
(** Drop every entry; the counters are kept.
    @raise Invalid_argument (dropping nothing) if any entry is pinned. *)

val stats : 'v t -> int * int * int
(** [(hits, misses, evictions)] since creation. *)

val resident : 'v t -> int
(** Number of entries. *)

val total_size : 'v t -> int
(** Sum of the entries' charged sizes. *)

val budget : 'v t -> int

val set_budget : 'v t -> int -> unit
(** Change the budget, evicting at once if now over it. *)
