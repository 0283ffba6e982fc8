(** Buffer pool for the baseline engine: caches deserialized pages, tracks
    dirty ones, steals (writes back) the LRU frame when over budget — the
    random in-place page writes the paper's comparison hinges on — and
    flushes everything at checkpoints. *)

type frame = {
  page_id : int;
  mutable node : Page.node;
  mutable dirty : bool;
  mutable lru_tick : int;
}

type t = {
  store : Tdb_platform.Untrusted_store.t;
  frames : (int, frame) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  mutable next_page : int;
  mutable meta_tables : (string * int) list;
  mutable pages_written : int;
  mutable page_misses : int;
}

val create : Tdb_platform.Untrusted_store.t -> cache_pages:int -> t
val get : t -> int -> frame
val alloc : t -> Page.node -> frame
val mark_dirty : frame -> unit

val flush_all : t -> unit
(** Flush every dirty page + the meta page, then sync (checkpoint half). *)

val table_root : t -> string -> int option
val set_table_root : t -> string -> int -> unit
val data_size : t -> int
