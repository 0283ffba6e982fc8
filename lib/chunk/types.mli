(** Shared types for the chunk store. *)

type chunk_id = int
(** Chunk names handed out by {!Chunk_store.allocate}. Non-negative; never
    recycled by this implementation. *)

val reserved_ids : int
(** Ids [0, reserved_ids) are never handed out by [allocate]; upper layers
    claim them as well-known roots (0: backup-store state, 1: object-store
    catalog). *)

type entry = {
  seg : int;  (** segment holding the record *)
  off : int;  (** byte offset of the payload within the segment *)
  len : int;  (** stored (possibly encrypted) payload length *)
  hash : string;  (** digest of the stored bytes — the Merkle label *)
  version : int;  (** sequence number of the commit that wrote it *)
}
(** Location of a stored record in the log. *)

val entry_equal : entry -> entry -> bool

exception Tamper_detected of string
(** Validation failed in a way a crash cannot explain: bad Merkle hash,
    bad MAC, or a one-way-counter mismatch (replay / rollback). *)

exception Not_allocated of chunk_id
exception Not_written of chunk_id
exception Chunk_too_large of { cid : chunk_id; size : int; max : int }

val tamper : ('a, unit, string, 'b) format4 -> 'a
(** [tamper fmt ...] raises {!Tamper_detected} with a formatted message. *)

(** Record kinds in the log. *)
type record_kind = Data_chunk | Map_node | Commit | Next_segment

val kind_to_byte : record_kind -> int
val kind_of_byte : int -> record_kind

(** Why a commit record was written. *)
type commit_kind = App of { durable : bool } | Clean | Checkpoint
