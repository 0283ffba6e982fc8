(** The hierarchical location map with the Merkle hash tree embedded in it
    (paper Section 3.2.1): a fixed-fanout radix tree over chunk ids whose
    leaf slots hold data-chunk location entries and whose interior slots
    hold child-node entries. Every entry carries the one-way hash of the
    bytes it points at, so validating a chunk read validates one
    root-to-leaf path and the root entry (in the MAC'd anchor)
    authenticates the whole database.

    Nodes load lazily through a [fetch] callback (which reads the
    untrusted store, checks the recorded hash and decrypts); dirty nodes
    live in memory until {!checkpoint} writes them bottom-up, and {!trim}
    unloads clean leaves again.

    Recovery starts from the anchored tree, so a node's [disk] copy stays
    live until a checkpoint rewrites or empties the node, even while the
    node is dirty: {!checkpoint} is the only place a superseded copy is
    handed back. *)

open Types

type kid =
  | Empty
  | Entry of { seg : int; off : int; len : int; hash : string; version : int }
      (** a data chunk's entry, inline: a filled leaf slot is one block *)
  | Node of node
  | Unloaded of entry

and node = {
  level : int;  (** 0 = leaf *)
  base : int;  (** first chunk id covered *)
  kids : kid array;
  mutable disk : entry option;  (** the on-disk copy the current anchor reaches *)
  mutable dirty : bool;  (** changed since [disk]; a dirty node's ancestors are dirty *)
  mutable used : bool;  (** leaf: a lookup reached it since the last {!trim} passed it *)
}

type t = { fanout : int; depth : int; mutable root : node }

type fetch = what:(unit -> string) -> entry -> string
(** Validated, decrypted payload at an entry. [what ()] names the record in
    a tamper message and is called only on failure.
    @raise Tamper_detected on validation failure. *)

val create : fanout:int -> depth:int -> t
val capacity : t -> int

(** {1 Node serialization} *)

val write_entry : Tdb_pickle.Pickle.writer -> entry -> unit
val read_entry : Tdb_pickle.Pickle.reader -> entry
val node_of_payload : fanout:int -> string -> node

(** {1 Point operations} *)

val find : t -> fetch -> chunk_id -> entry option

val set : t -> fetch -> chunk_id -> entry -> entry option
(** Install an entry and dirty its path; returns the replaced data entry.
    The path's on-disk node copies stay live until the next {!checkpoint}. *)

val remove : t -> fetch -> chunk_id -> entry option
(** Clear an entry (dirtying its path, as {!set}); returns it. *)

val dirty_path : t -> fetch -> level:int -> chunk_id -> unit
(** Dirty the node at [level] covering the id, and its ancestors, so the
    next {!checkpoint} rewrites them — the cleaner's way to relocate a live
    map node. *)

val find_node : t -> fetch -> level:int -> base:int -> node option
(** Used by the cleaner to test map-node liveness. *)

val root_entry : t -> entry option
(** The root's on-disk entry; [None] while dirty or empty. *)

val resident_leaves : t -> int
(** Leaf nodes in memory. *)

val trim : t -> keep:int -> unit
(** With more than [keep] leaves in memory, unload every clean leaf that
    no {!find}, {!set} or {!remove} reached since the previous trim, and
    clear that mark on the others; a later lookup fetches and checks the
    leaf again. Dirty leaves and interior nodes stay. Called after a
    checkpoint's anchor lands, when every leaf is clean. *)

val count_dirty : t -> int
(** Dirty nodes (walks only those). *)

(** {1 Checkpoint and whole-tree walks} *)

val checkpoint : t -> write_node:(string -> entry) -> retire:(entry -> unit) -> entry option
(** Write dirty nodes bottom-up; returns the new root entry. Each on-disk
    copy a rewritten or emptied node supersedes is passed to [retire], once;
    the caller frees it only after anchoring the new root. *)

val iter : t -> fetch -> data:(chunk_id -> entry -> unit) -> node:(entry -> unit) -> unit
(** Walk the current tree (loads everything): every data entry and every
    node's on-disk copy, dirty nodes included — recovery's usage rebuild,
    which thereby charges every copy the anchor reaches. *)

val walk_tree :
  fanout:int -> fetch -> root:entry -> data:(chunk_id -> entry -> unit) -> node:(entry -> unit) -> unit
(** Walk a tree straight off the disk (snapshot reads). *)

val diff_trees :
  fanout:int ->
  fetch ->
  old_root:entry option ->
  new_root:entry option ->
  changed:(chunk_id -> entry -> unit) ->
  removed:(chunk_id -> unit) ->
  unit
(** Structural diff pruning identical subtrees by hash — the basis of
    incremental backups. *)
