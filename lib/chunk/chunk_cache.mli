(** LRU cache of decrypted, hash-verified chunk payloads (see DESIGN.md,
    "Caching").

    Sits inside the chunk store, below the object cache: a hit skips the
    log read, the Merkle-label check and the decryption that
    {!Chunk_store.read} otherwise pays on every access. The LRU is
    {!Lru}, the same structure the object cache runs on; this module adds
    only the chunk tier's policy:
    - the version guard: entries are keyed by chunk id and a lookup only
      hits when the cached version matches the one the location map
      currently holds, so stale data can never be served and cleaning
      relocation (which preserves versions) invalidates nothing;
    - a flat 64-byte charge per entry on top of the payload;
    - a payload charged more than the whole budget is not cached, and a
      budget of 0 disables caching;
    - no locking of its own: the cache is reached only under
      [Object_store.mu], so one thread at a time touches it. *)

type t

val create : budget:int -> t
(** An empty cache holding at most [budget] bytes of plaintext (plus the
    per-entry charge). A budget of 0 disables caching: [put] becomes a
    no-op and every [find] misses. *)

val find : t -> int -> version:int -> string option
(** [find t cid ~version] returns the cached payload iff an entry for
    [cid] exists at exactly [version]; a version mismatch drops the stale
    entry and counts as a miss. *)

val put : t -> int -> version:int -> string -> unit
(** Insert or refresh the payload for [cid] at [version], evicting
    least-recently-used entries until within budget. A payload charged
    more than the whole budget is not cached, and any older version of
    [cid] is dropped, so the cache never holds more than its budget. *)

val remove : t -> int -> unit
(** Forget [cid] (deallocation). *)

val stats : t -> int * int * int
(** [(hits, misses, evictions)] since creation. *)

val resident : t -> int
(** Number of cached entries. *)

val total_size : t -> int
(** Budget-accounted bytes currently held. *)

val budget : t -> int

val set_budget : t -> int -> unit
(** Change the budget, evicting immediately if now over. *)
