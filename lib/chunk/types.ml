(** Shared types for the chunk store. *)

type chunk_id = int
(** Chunk names handed out by {!Chunk_store.allocate}. Positive integers;
    ids are never recycled by this implementation (the 24-bit-years supply
    of a fanout-64 depth-4 map makes reuse pointless complexity). *)

(** Location of a stored record: [off] is the byte offset of the payload
    within the untrusted store, [len] its (possibly encrypted) length,
    [hash] the digest of the payload bytes as stored (the Merkle label),
    [version] the sequence number of the commit that wrote it. *)
type entry = { seg : int; off : int; len : int; hash : string; version : int }

let entry_equal a b =
  Int.equal a.seg b.seg && Int.equal a.off b.off && Int.equal a.len b.len
  && Int.equal a.version b.version && String.equal a.hash b.hash

(** Chunk ids [0, reserved_ids) are never handed out by [allocate]; upper
    layers claim them as well-known roots (0: backup-store state, 1:
    object-store catalog). A record in 2 marks a store written as one
    shard of a sharded database, which {!Chunk_store.open_existing}
    refuses. *)
let reserved_ids = 8

exception Tamper_detected of string
(** Raised whenever validation fails in a way that cannot be explained by a
    crash: bad Merkle hash, bad MAC, one-way-counter mismatch. *)

exception Not_allocated of chunk_id
exception Not_written of chunk_id
exception Chunk_too_large of { cid : chunk_id; size : int; max : int }

let tamper fmt = Printf.ksprintf (fun s -> raise (Tamper_detected s)) fmt

(** Record types in the log. *)
type record_kind =
  | Data_chunk (* application chunk state *)
  | Map_node (* serialized location-map node *)
  | Commit (* commit record: seals a batch of writes *)
  | Next_segment (* tail moved to another segment *)

let kind_to_byte = function Data_chunk -> 1 | Map_node -> 2 | Commit -> 3 | Next_segment -> 4

let kind_of_byte = function
  | 1 -> Data_chunk
  | 2 -> Map_node
  | 3 -> Commit
  | 4 -> Next_segment
  | n -> invalid_arg (Printf.sprintf "unknown record kind %d" n)

(** Why a commit record was written. *)
type commit_kind =
  | App of { durable : bool } (* application commit *)
  | Clean (* cleaner relocation (never durable by itself) *)
  | Checkpoint (* seals a checkpoint *)
