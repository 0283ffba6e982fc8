(** The untrusted store (paper Figure 1): a random-access byte store
    holding the database, which the attacker — the device's owner — may
    arbitrarily read and modify, including offline.

    Everything above this interface (the chunk store) must assume its
    contents are hostile. Two implementations:
    - {!open_file}: a real file (the paper's database lived in an NTFS
      file);
    - {!open_mem}: in-memory with {e fault injection} — crashes losing an
      arbitrary subset of unsynced writes, plus the attacker primitives
      (scan, corrupt, snapshot, replay) the test suites use. *)

type stats = {
  mutable reads : int;
  mutable writes : int;  (** write calls; a [writev] counts once *)
  mutable fragments : int;  (** fragments written; a [writev] counts its list length *)
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable syncs : int;
}

type t = {
  read : off:int -> len:int -> bytes;
  write : off:int -> string -> unit;
  writev : off:int -> string list -> unit;
  size : unit -> int;
  set_size : int -> unit;
  sync : unit -> unit;
  close : unit -> unit;
  stats : stats;
}
(** A store as a record of operations, so wrappers (e.g. the benchmark's
    simulated disk) can interpose per-call behaviour. *)

val read : t -> off:int -> len:int -> bytes
(** @raise Invalid_argument when the range exceeds the store. *)

val write : t -> off:int -> string -> unit
(** Extends the store as needed; holes read as zeros. *)

val writev : t -> off:int -> string list -> unit
(** Write the concatenation of the fragments contiguously at [off]: one
    store operation (one seek + one kernel write on the file backend, one
    blit run on the mem backend). Empty fragments are skipped; an empty (or
    all-empty) list is a no-op. Crash semantics are those of the equivalent
    sequence of per-fragment {!write}s: a crash may persist an arbitrary
    subset of fragments, and {!interpose} hooks observe each fragment as a
    separate [Op_write] boundary. *)

val size : t -> int

val set_size : t -> int -> unit
(** Truncate or zero-extend. *)

val sync : t -> unit
(** Make all preceding writes crash-durable. *)

val close : t -> unit
val stats : t -> stats

(** {1 Fault-plan hook} *)

type op = Op_write of { off : int; data : string } | Op_set_size of int | Op_sync
(** A mutating operation about to hit the store. [Op_write] carries the
    payload so a hook can model a torn write (persist a prefix, then
    crash). *)

val interpose : before:(op -> unit) -> t -> t
(** Wrap a store so [before] observes every mutating operation at its
    write/sync boundary, before it executes. The hook may raise to model a
    crash arrested exactly at that boundary (see {!Tdb_faultsim.Fault_plan});
    reads pass through untouched. A [writev] is decomposed into per-fragment
    [Op_write] boundaries (fragments before a crash point reach the
    underlying store individually), so coalescing writes never removes crash
    points the fault harness could otherwise hit. *)

(** {1 In-memory store with fault injection} *)

module Mem : sig
  type handle

  val crash : ?persist_prob:float -> rng:(int -> int) -> handle -> unit
  (** Simulate a crash: synced state survives; each unsynced write
      independently survives with [persist_prob]; size changes always
      survive (journaled metadata). *)

  val crash_hard : handle -> unit
  (** Crash losing every unsynced write. *)

  val corrupt : handle -> off:int -> len:int -> mask:int -> unit
  (** Attacker: XOR [mask] over a byte range (offline modification). *)

  val snapshot : handle -> Bytes.t
  (** Attacker: copy the full image (to replay later). *)

  val restore : handle -> Bytes.t -> unit
  (** Attacker: replay a previously saved image. *)

  val contents : handle -> string
  (** Attacker: raw view for offline analysis. *)

  val clone : handle -> handle * t
  (** Fault injector: an independent copy of the store, unsynced writes
      still unsynced — crash the copy to get a crash image of the original
      without disturbing it. *)
end

val open_mem : unit -> Mem.handle * t
val open_file : string -> t
