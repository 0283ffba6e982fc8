(** Group commit: coalesce concurrent sessions' durable commits into one
    chunk-store durable barrier — one log force, one one-way-counter bump,
    arbitrarily many commits.

    Usage: perform the transaction's {e nondurable} commit first (its
    atomicity is settled at that point; the chunk store guarantees it
    survives once a later barrier lands), then call {!run}, which blocks
    until a barrier covers the commit. The ticket protocol guarantees a
    barrier only claims commits that were in the log before it started. *)

type t

val create : barrier:(unit -> unit) -> t
(** [barrier] must promote every committed nondurable transaction to
    durable (e.g. {!Tdb_objstore.Object_store.durable_barrier}, which
    itself keeps one durable point in flight). It is called from one
    caller's thread at a time, never concurrently: one leader per round
    is what makes the claim cover every earlier ticket. *)

val run : t -> unit
(** Block until the caller's (already landed) nondurable commit is covered
    by a durable barrier, leading one if none is running. Re-raises the
    barrier's exception — and once a barrier has raised, the coordinator
    is poisoned and every subsequent call re-raises it (the store's
    durability story is broken; no caller gets a false claim). *)

type stats = { gc_batches : int  (** barriers run *); gc_coalesced : int  (** commits covered *) }

val stats : t -> stats
