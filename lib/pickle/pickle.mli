(** Binary pickling combinators.

    TDB stores C++ objects by calling application-supplied pickle methods
    (paper Section 4.1); this module is the OCaml equivalent: a compact,
    architecture-independent binary format with explicit writer/reader
    combinators. Integers use zig-zag varints so small DRM records stay
    small; fixed-width forms exist where stable sizes matter. *)

exception Error of string
(** Malformed or truncated input (all read failures raise this). *)

(** {1 Writer} *)

type writer = { buf : Buffer.t }

val writer : unit -> writer
val contents : writer -> string
val writer_length : writer -> int
val byte : writer -> int -> unit
val bool : writer -> bool -> unit
val char : writer -> char -> unit

val int : writer -> int -> unit
(** Zig-zag varint: 1 byte for |v| < 64, up to 9 bytes for any [int]. *)

val uint : writer -> int -> unit
(** Plain varint. @raise Error on negative input. *)

val int64 : writer -> int64 -> unit
(** Fixed 8 bytes, big-endian. *)

val int32_fixed : writer -> int -> unit
(** Fixed 4 bytes, big-endian (low 32 bits). *)

val float : writer -> float -> unit
val string : writer -> string -> unit
val bytes : writer -> bytes -> unit
val option : writer -> (writer -> 'a -> unit) -> 'a option -> unit
val list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val array : writer -> (writer -> 'a -> unit) -> 'a array -> unit
val pair : writer -> (writer -> 'a -> unit) -> (writer -> 'b -> unit) -> 'a * 'b -> unit

val triple :
  writer -> (writer -> 'a -> unit) -> (writer -> 'b -> unit) -> (writer -> 'c -> unit) -> 'a * 'b * 'c -> unit

(** {1 Reader} *)

type reader

val reader : ?off:int -> ?len:int -> string -> reader
(** A reader over a window of [s]. @raise Error on bad bounds. *)

val remaining : reader -> int
val at_end : reader -> bool
val read_byte : reader -> int
val read_char : reader -> char
val read_bool : reader -> bool
val read_uint : reader -> int
(** Never negative: a varint that decodes past [max_int] (untrusted bytes
    can encode one) raises [Error], so a length or count read with it can
    size nothing. *)

val read_int : reader -> int
val read_int64 : reader -> int64
val read_int32_fixed : reader -> int
val read_float : reader -> float
val read_string : reader -> string
val read_bytes : reader -> bytes
val read_option : reader -> (reader -> 'a) -> 'a option
val read_list : reader -> (reader -> 'a) -> 'a list
val read_pair : reader -> (reader -> 'a) -> (reader -> 'b) -> 'a * 'b
val read_triple : reader -> (reader -> 'a) -> (reader -> 'b) -> (reader -> 'c) -> 'a * 'b * 'c

val expect_end : reader -> unit
(** Fail unless everything was consumed — catches class mismatches early.
    @raise Error when trailing bytes remain. *)
