(** LRU cache of decrypted, hash-verified chunk payloads (see DESIGN.md,
    "Caching").

    Sits inside the chunk store, below the object cache: a hit skips the
    log read, the Merkle-label check and the decryption that
    {!Chunk_store.read} otherwise pays on every access. Entries are keyed
    by chunk id and guarded by the committed version number — a lookup
    only hits when the cached version matches the one the location map
    currently holds, so stale data can never be served and cleaning
    relocation (which preserves versions) invalidates nothing.

    The cache is single-writer: it belongs to the domain that created it,
    and every mutating operation asserts it runs there — see DESIGN.md,
    "Sealing runs on the calling domain". *)

type t

val create : budget:int -> t
(** An empty cache holding at most [budget] bytes of plaintext (plus a
    small per-entry overhead). A budget of 0 disables caching: [put]
    becomes a no-op and every [find] misses. The calling domain becomes
    the cache's owner; [find]/[put]/[remove]/[clear]/[set_budget] from
    any other domain fail the ownership assertion. *)

val find : t -> int -> version:int -> string option
(** [find t cid ~version] returns the cached payload iff an entry for
    [cid] exists at exactly [version]; a version mismatch drops the stale
    entry and counts as a miss. *)

val put : t -> int -> version:int -> string -> unit
(** Insert or refresh the payload for [cid] at [version], evicting
    least-recently-used entries until within budget. *)

val remove : t -> int -> unit
(** Forget [cid] (deallocation). *)

val clear : t -> unit
(** Drop every entry (recovery/restore). Counters are preserved. *)

val stats : t -> int * int * int
(** [(hits, misses, evictions)] since creation. *)

val resident : t -> int
(** Number of cached entries. *)

val total_size : t -> int
(** Budget-accounted bytes currently held. *)

val budget : t -> int

val set_budget : t -> int -> unit
(** Change the budget, evicting immediately if now over. *)
