(** Constant-time primitives, for MAC verification and padding checks. *)

val equal_string : string -> string -> bool
val equal_bytes : bytes -> bytes -> bool

(** {1 Mask combinators}

    Branch-free predicates over small non-negative ints (byte values,
    block sizes — magnitudes far below [2^(int_size-2)]). The result is
    [-1] (all ones) when the predicate holds and [0] otherwise, so checks
    compose with [land]/[lor] and a single data-independent branch at the
    end. *)

val lt_mask : int -> int -> int
(** [lt_mask a b] is [-1] iff [a < b]. *)
