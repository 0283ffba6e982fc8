(** The one-way persistent counter (paper Figure 1): readable by anyone,
    incrementable, never decrementable. Real devices use dedicated
    hardware (the paper cites the Infineon Eurochip); the paper's own
    evaluation emulates it "as a file on the same NTFS partition" (§7.2)
    and {!open_file} reproduces exactly that, torn-write-safe via two
    checksummed slots. The chunk store compares this counter with the
    authenticated database state to detect replay attacks. *)

type t = { read : unit -> int64; increment : unit -> int64 (** returns the new value *) }

exception Unreadable of string
(** Raised by {!open_store} when no slot decodes and the store is not a
    torn first initialization: it holds more than one slot's bytes, or
    the counter was opened as existing. Nothing is written. *)

val read : t -> int64
val increment : t -> int64

module Mem : sig
  type handle

  val rollback : handle -> int64 -> unit
  (** Deliberately violates one-wayness so tests can model a {e broken}
      counter and check that TDB flags the mismatch as tampering. *)
end

val open_mem : ?initial:int64 -> unit -> Mem.handle * t

val open_store : ?existing:bool -> Untrusted_store.t -> t
(** Counter emulated over an untrusted byte store: the value sits in two
    checksummed slots; each increment writes the slot {e not} holding the
    current maximum and syncs, so a torn slot write never rolls the counter
    back. A store holding at most one slot's bytes and no valid slot (a
    torn first initialization) is initialized to 0.
    The fault-injection harness instruments this store to crash the
    counter protocol at every write/sync boundary.
    @raise Unreadable if the store holds more and no slot decodes, or,
    with [~existing:true] (a counter that must already be in service),
    if no slot decodes at all. *)

val open_file : ?existing:bool -> string -> t
(** {!open_store} over a file-backed store — the paper's NTFS-file
    emulation (Section 7.2). *)
