(** Shared/exclusive object locks with timeout-based deadlock breaking
    (paper Section 4.2.3). The store's single state mutex is released
    while a thread waits on a transactional lock — exactly the behaviour
    the paper describes to avoid spurious deadlocks. Waiting is
    condition-signalled (a release wakes blocked acquirers immediately; an
    on-demand timer thread enforces the timeout that breaks deadlocks), so
    contention burns no cycles polling. Geared to low concurrency on
    purpose: no granular locks, no escalation. *)

exception Lock_timeout of { oid : int; txn : int }

type mode = Shared | Exclusive

type t

val create : unit -> t
val mode_of : t -> txn:int -> oid:int -> mode option

val acquire : t -> mu:Mutex.t -> txn:int -> oid:int -> mode:mode -> timeout:float -> unit
(** Acquire (or upgrade to) [mode]; [mu] is the caller-held state mutex,
    released while blocked. Re-entrant; shared locks are compatible;
    upgrades need sole ownership. @raise Lock_timeout after [timeout]s. *)

val release_all : t -> txn:int -> oids:int list -> unit
(** Strict two-phase locking: everything releases together at txn end.
    [oids] lists every oid [txn] acquired (the manager keeps no
    per-transaction index); duplicates are harmless. *)

val held_count : t -> int
