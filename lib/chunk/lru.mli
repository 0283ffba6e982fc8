(** A byte-budgeted cache map from int keys to values, with pin counts and
    second-chance (CLOCK) replacement.

    Both cache tiers run on it (see DESIGN.md, "Caching"): the object
    store keeps unpickled objects in one, pinned while a transaction
    references them (no-steal, paper Section 4.2.2); {!Chunk_cache} keeps
    verified chunk payloads in one and adds its version guard on top.

    Every entry is charged the [size] its caller gives it. Entries sit in
    the order they joined, oldest first. A hit only sets the entry's
    referenced bit: it moves nothing and allocates nothing beyond the
    returned option. Whenever the total exceeds the budget, eviction walks
    from the oldest entry until the total fits or no entry is left to
    walk. An unpinned entry whose bit is set has it cleared and rejoins at
    the young end (its second chance); one whose bit is clear is dropped.
    A pinned entry the walk meets is parked: taken off the list (it stays
    in the map and is still found) until its last {!unpin}, so a walk
    passes a pinned entry at most once per pin period and a referenced one
    at most once per hit. [pin], and [unpin] of an entry that is not
    parked, make no list operation of their own. The total may exceed the
    budget only by pinned entries plus the entry just put. The structure
    is unsynchronized: callers serialize access. *)

type 'v entry
type 'v t

val create : budget:int -> 'v t

val value : 'v entry -> 'v

val lock : 'v entry -> int
(** A word the caller owns: 0 in a new entry, kept by a {!put} that
    replaces the value, and never read here. The object store keeps the
    object's transactional lock in it. *)

val set_lock : 'v entry -> int -> unit

val pinned : 'v entry -> bool

val find : ?valid:('v -> bool) -> 'v t -> int -> 'v entry option
(** A hit sets the entry's referenced bit and leaves it where it is, a
    parked entry parked. An entry whose value fails [valid] is dropped and
    counted as a miss, not as an eviction. *)

val put : 'v t -> int -> 'v -> size:int -> 'v entry
(** Insert, or replace the value and size of the entry already there (its
    pins and referenced bit are kept). Eviction runs before the entry
    joins the young end (a parked entry stays parked), so a put never
    evicts its own entry: one larger than the budget stays until the next
    walk. *)

val pin : 'v entry -> unit

val unpin : 'v t -> 'v entry -> unit
(** Drop one pin. At the last one a parked entry re-enters at the young
    end; then eviction runs if over budget.
    @raise Invalid_argument if the entry is not pinned. *)

val remove : 'v t -> int -> unit
(** Drop the entry for a key, pinned or not. Not counted as an eviction. *)

val update_size : 'v t -> 'v entry -> size:int -> unit
(** Re-charge an entry, then evict if now over budget. *)

val drop_all : 'v t -> unit
(** Drop every entry; the counters are kept.
    @raise Invalid_argument (dropping nothing) if any entry is pinned. *)

val mem : 'v t -> int -> bool
(** Whether the key has an entry. Unlike {!find}, it counts nothing and
    sets no bit. *)

val fold : ('v entry -> 'a -> 'a) -> 'v t -> 'a -> 'a
(** Fold over the entries in the map, parked ones included, in no
    particular order. *)

val stats : 'v t -> int * int * int
(** [(hits, misses, evictions)] since creation. *)

val resident : 'v t -> int
(** Number of entries. *)

val total_size : 'v t -> int
(** Sum of the entries' charged sizes. *)

val budget : 'v t -> int

val set_budget : 'v t -> int -> unit
(** Change the budget, evicting at once if now over it. *)
