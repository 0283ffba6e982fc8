(** Deterministic random bit generator built on SHA-256 (hash-DRBG style).
    Deterministic seeding keeps tests and benchmarks reproducible;
    production embedders reseed from the secret store plus device entropy.

    Thread-safe: state advance is a short critical section under an
    internal mutex (block expansion happens outside it), so concurrent
    callers each get a distinct, never-overlapping slice of the stream.
    The {e sequence} of values then depends on scheduling — order-
    sensitive users (IV assignment in the seal pipeline) must draw one
    at a time, in operation order: the object store seals under its state
    mutex. *)

type t

val create : seed:string -> t
val generate : t -> int -> string

val split : t -> string -> t
(** Derive an independent generator; advances the parent. *)

val int : t -> int -> int
(** Uniform-ish value in [0, bound). @raise Invalid_argument on bound <= 0. *)
