(** The log: segment allocation, tail appends, usage accounting. The chunk
    store is log-structured (paper Section 3.2.1): the log is the {e only}
    storage; records append at the tail and never update in place. The
    store divides into fixed segments chained by [Next_segment] markers so
    recovery can follow the residual log.

    Segments whose live usage drops to zero become reusable only at
    {e barriers} (durable commit / checkpoint / recovery): before that
    their garbage may still be needed — versions obsoleted by nondurable
    commits must survive until durability (paper Section 3.2.2), and
    records since the last checkpoint form the residual log. Barriers also
    return trailing free segments to the untrusted store (the paper's
    "increase or decrease the space allocated"). *)

open Types

val header_size : int
val magic_byte : char
val marker_size : int

type run = {
  run_off : int;
  mutable run_frags : string list;  (** reversed: newest fragment first *)
  mutable run_len : int;
}
(** A contiguous buffered byte range at the tail, not yet on the store. *)

type t = {
  store : Tdb_platform.Untrusted_store.t;
  cfg : Config.t;
  log_base : int;
  mutable nsegments : int;
  usage : (int, int) Hashtbl.t;
  mutable free : int list;
  mutable nfree : int;  (** [List.length free], maintained *)
  pinned : (int, int) Hashtbl.t;
  residual : (int, unit) Hashtbl.t;
  mutable residual_bytes : int;
  mutable tail_seg : int;
  mutable tail_off : int;
  mutable tail_buf : run list;  (** buffered appends, newest run first *)
  mutable grown : int;
}

val create : Tdb_platform.Untrusted_store.t -> Config.t -> t

val of_recovery :
  Tdb_platform.Untrusted_store.t -> Config.t -> tail_seg:int -> tail_off:int ->
  usage:(int, int) Hashtbl.t -> t
(** Recovery-mode construction: tail from the anchor; the caller rebuilds
    [usage] by walking the recovered map, then calls {!barrier}. *)

(** {1 Accounting} *)

val segment_size : t -> int
val usage_of : t -> int -> int
val capacity : t -> int
val live_bytes : t -> int

val live_segments : t -> int
(** Segments holding live bytes. *)

val utilization : t -> float
val free_count : t -> int
val nsegments : t -> int
val tail_pos : t -> int * int
val record_space : int -> int
val residual_bytes : t -> int
val obsolete_bytes : t -> seg:int -> payload_len:int -> unit
val obsolete_entry : t -> entry -> unit

(** {1 Barriers, growth, pinning} *)

val barrier : ?eligible:(int, unit) Hashtbl.t -> t -> unit
(** Recompute the free list and shrink trailing free segments. With
    [eligible], only segments in the set are considered for promotion —
    used by a staged (group-commit) barrier whose commit record was
    appended before other commits ran: segments whose last live bytes
    were obsoleted by those later, not-yet-durable commits must survive
    until the {e next} barrier, or a crash could recover to a state that
    still needs them. *)

val zero_usage_segments : t -> (int, unit) Hashtbl.t
(** Snapshot of segments currently holding no live bytes — the candidate
    set to pass as [eligible] to a later {!barrier}. *)

val end_checkpoint : t -> unit
val grow : t -> segments:int -> unit
val pin : t -> int -> unit
val unpin : t -> int -> unit
val is_pinned : t -> int -> bool

(** {1 Record I/O} *)

exception Need_segment

val append : ?live:bool -> t -> record_kind -> string -> int * int
(** Append at the tail; returns the payload position. The record is only
    {e buffered} (header, payload and chain markers accumulate in the tail
    buffer) and reaches the store at the next {!flush} as one vectored
    write per contiguous run. [live] records are charged to segment usage;
    transient (commit) records are not.
    @raise Need_segment when the free list is empty (caller grows). *)

type flush_token
(** Detached pending tail ranges (see {!flush_prepare}). *)

val flush : t -> unit
(** Write all buffered appends to the store, one {!Tdb_platform.Untrusted_store.writev}
    per contiguous run. Callers must flush before any durability point
    ([sync]); {!barrier} and the record-read paths flush on their own as a
    backstop. *)

val flush_prepare : t -> flush_token
(** Detach the buffered tail into a token, leaving the buffer empty. The
    token only references [t.store] — {!flush_write} on it is safe outside
    the lock protecting [t]'s mutable state, which is how the staged
    group-commit barrier moves commit I/O out of the store mutex. Records
    held by a detached token are unreadable until {!flush_write}; the only
    records a staged barrier detaches are its own commit record and chain
    markers, which nothing reads back before recovery. *)

val flush_write : t -> flush_token -> unit
(** Write a detached token's runs to the store. *)

val read_payload : t -> entry -> string
val scan_segment : t -> int -> (record_kind * int * string) list
val scan_chain : t -> seg:int -> off:int -> f:(record_kind -> int * int -> string -> unit) -> unit

val clean_candidates : t -> int list
(** Cleanable segments (never tail / pinned / residual / empty),
    least-utilized first. *)
