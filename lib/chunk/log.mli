(** The log: segment allocation, tail appends, usage accounting. The chunk
    store is log-structured (paper Section 3.2.1): the log is the {e only}
    storage; records append at the tail and never update in place. The
    store divides into fixed segments chained by [Next_segment] markers so
    recovery can follow the residual log.

    Segments whose live usage drops to zero become reusable only at
    {e barriers} (durable commit / checkpoint / recovery): before that
    their garbage may still be needed — versions obsoleted by nondurable
    commits must survive until durability (paper Section 3.2.2). Barriers
    also return trailing free segments to the untrusted store (the paper's
    "increase or decrease the space allocated").

    No barrier frees anything recovery can reach before the next anchor
    replaces it:
    - the anchored map tree: its node copies stay charged to [usage] until
      the checkpoint that supersedes them has written its anchor;
    - the residual chain: segments appended to since the last checkpoint,
      or replayed by recovery ({!scan_chain}), stay in [residual] until
      {!end_checkpoint};
    - snapshot trees: their segments are pinned. *)

open Types

val header_size : int
val magic_byte : char
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
  mutable held : (int, unit) Hashtbl.t option;  (** segments emptied since {!hold} *)
}

val create : Tdb_platform.Untrusted_store.t -> Config.t -> t

val of_recovery :
  Tdb_platform.Untrusted_store.t -> Config.t -> tail_seg:int -> tail_off:int ->
  usage:(int, int) Hashtbl.t -> t
(** Recovery-mode construction: tail from the anchor; the caller rebuilds
    [usage] by walking the recovered map and scans the residual chain
    ({!scan_chain} marks its segments residual), then calls {!barrier}. *)

(** {1 Accounting} *)

val segment_size : t -> int
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
val obsolete_entry : t -> entry -> unit

(** {1 Barriers, growth, pinning} *)

val barrier : t -> unit
(** Recompute the free list and shrink trailing free segments. Segments
    emptied since {!hold} stay out of it; the barrier ends the hold. *)

val hold : t -> unit
(** Called once a staged barrier's record is in the log: segments emptied
    from now on (by commits behind that record) survive the next
    {!barrier}, since recovery to its prefix may read them, and free at
    the one after. Segments grown meanwhile are free as usual. *)

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

val flush : t -> unit
(** Write all buffered appends to the store, one {!Tdb_platform.Untrusted_store.writev}
    per contiguous run. Callers must flush before any durability point
    ([sync]); {!barrier} and the record-read paths flush on their own as a
    backstop. *)

val read_payload : t -> entry -> string
val scan_segment : t -> int -> (record_kind * int * string) list
val scan_chain : t -> seg:int -> off:int -> f:(record_kind -> int * int -> string -> unit) -> unit
(** Recovery's residual-log scan: fold the records of the tail chain from
    [(seg, off)], stopping at the first invalid record. Marks every
    segment visited residual, so a crash before the next checkpoint finds
    the same chain. *)

val clean_candidates : t -> int list
(** Cleanable segments (never tail / pinned / residual / empty),
    least-utilized first. *)
