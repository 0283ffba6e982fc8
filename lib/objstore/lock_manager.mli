(** Waiting for shared/exclusive object locks, with timeout-based deadlock
    breaking (paper Section 4.2.3).

    The locks themselves are not kept here: each object's lock is one word
    on its object-cache entry, granted and released by {!Object_store}
    (see object_store.ml, "Locks"). This module is what a transaction
    does when a grant fails: it parks on a condition tied to the store's
    state mutex, which is released while it waits (the paper's remedy for
    spurious deadlocks between that mutex and transactional locks); a
    release wakes it ({!wake}), and an on-demand timer thread enforces the
    timeout. Geared to low concurrency on purpose: no granular locks, no
    escalation. *)

exception Lock_timeout of { oid : int; txn : int }

type mode = Shared | Exclusive

type t

val create : unit -> t

val wait_for : t -> mu:Mutex.t -> txn:int -> oid:int -> timeout:float -> (unit -> 'a option) -> 'a
(** [wait_for t ~mu ~txn ~oid ~timeout grant] is called, with [mu] held,
    after a first grant of [oid] to [txn] failed. It parks (releasing
    [mu]) and runs [grant ()] again after every wake, until [grant]
    returns [Some v] (then [v]) or the deadline passes. [grant] runs with
    [mu] held and must re-resolve whatever it grants on: the holder may
    have dropped it meanwhile. Counts one wait however many wakes it
    takes. @raise Lock_timeout after [timeout]s (counted). Exceptions
    from [grant] pass through. *)

val wake : t -> unit
(** Wake every waiter, if there is one, so it can retry its grant; call
    with the state mutex held, after releasing locks. *)

val waits : t -> int
(** Grants that had to wait, since {!create}. *)

val timeouts : t -> int
(** {!Lock_timeout}s raised, since {!create}. *)
