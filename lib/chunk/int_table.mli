(** Hash tables keyed by ints that skip the polymorphic hash and compare.

    The keys are chunk and object ids: small, dense, handed out in
    sequence. Hashing such a key to itself spreads it across the buckets
    as well as the polymorphic hash does, and an [Int.equal] probe costs a
    machine compare where [Hashtbl.find] calls into the C hash and the
    polymorphic compare. The LRU under both cache tiers and a
    transaction's pins use it.

    Iteration order differs from the polymorphic [Hashtbl]'s. A table
    whose iteration order decides what reaches the store (an object
    store's write set, a chunk store's pending batch: it orders the
    batch's writes, and so its IVs) stays on the polymorphic [Hashtbl]. *)

include Hashtbl.S with type key = int
