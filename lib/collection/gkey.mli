(** Index key types (the paper's GenericKey hierarchy).

    A key type bundles ordering and a {e canonical} pickled form: equal
    keys must pickle to equal bytes (hash indexes bucket by the bytes;
    B-trees order by [compare] on the decoded values). All key types below
    are canonical; composite application keys built with {!pair} inherit
    canonicity from their components. *)

module type KEY = sig
  type k

  val name : string
  val compare : k -> k -> int
  val pickle : Tdb_pickle.Pickle.writer -> k -> unit
  val unpickle : Tdb_pickle.Pickle.reader -> k
end

type 'k t
(** A key type: a {!KEY} and the byte comparator its index nodes use. *)

val custom : (module KEY with type k = 'k) -> 'k t
(** An application-defined key type. Its byte comparator decodes both keys
    and orders the values with [K.compare] (see {!decode_compare}). *)

val to_bytes : 'k t -> 'k -> string
val of_bytes : 'k t -> string -> 'k

val bytes_compare : 'k t -> string -> string -> int
(** Comparator on canonical bytes — what keeps the index node classes
    monomorphic (paper Section 5.2.1: "all templatization is limited to
    ... the Indexer").

    For {!int}, {!string}, {!float} and any {!pair} of them it orders the
    two encodings in place: it reads zig-zag varints, length-prefixed
    bytes and 8-byte floats straight from the strings, builds no value or
    reader, and allocates nothing. Its result equals {!decode_compare}'s
    on every input: it raises [Pickle.Error] exactly where decoding would
    (a truncated or over-long varint, a short string or float), and it
    ignores bytes after the key, as [unpickle] does. A {!custom} key, or a
    pair with a custom component, compares by decoding. *)

val decode_compare : 'k t -> string -> string -> int
(** The reference comparator: decode both keys with [K.unpickle], then
    [K.compare] the values. *)

(** {1 Standard key types} *)

val int : int t
val string : string t
val float : float t

val pair : 'a t -> 'b t -> ('a * 'b) t
(** Lexicographic composite key. *)

val hash_bytes : string -> int
(** Deterministic, persistence-stable hash of canonical key bytes (FNV-1a
    style) — OCaml's [Hashtbl.hash] is not stable across versions. *)
