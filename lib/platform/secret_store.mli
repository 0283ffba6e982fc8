(** The platform secret store (paper Figure 1): a small trusted-read store
    holding the device's secret — ROM or battery-backed SRAM on real
    hardware. Only "authorized programs" (anything holding a [t]) can read
    it; the attacker model gives no access. *)

type t

val key_size : int

val of_seed : string -> t
(** In-memory secret store, deterministically seeded (tests, simulations). *)

exception Bad_key_file of string
(** A key file that cannot be read, or does not hold exactly {!key_size}
    bytes. *)

val of_file : string -> t
(** Load a key file (the "ROM image"). Never writes; a missing file is
    refused like a corrupt one.
    @raise Bad_key_file *)

val create_file : ?key:t -> string -> t
(** Write [key] — default: a fresh one — to a key file that must not
    exist yet, and return it. *)

val derive : t -> string -> string
(** [derive t purpose] is a 32-byte key bound to [purpose]
    (["chunk-cipher"], ["anchor-mac"], ["backup-mac"], ...): compromising
    one derived key reveals nothing about the others. *)

val derive_len : t -> string -> int -> string
(** Derive exactly [len] bytes (block ciphers want 16/48). *)

val zeroize : t -> t
(** Tamper response (battery-backed SRAM behaviour): after this, all
    derived keys are unrecoverable. *)
