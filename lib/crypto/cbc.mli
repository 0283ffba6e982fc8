(** CBC mode with PKCS#7 padding over any {!Block.CIPHER}. The chunk store
    prepends a fresh IV to every sealed payload; the padding reproduces the
    per-chunk storage overhead the paper measures for TDB-S. CBC does not
    authenticate — the Merkle tree does. *)

exception Bad_padding

type cipher
(** A cipher packaged with its expanded key (run-time selectable). *)

val make : (module Block.CIPHER) -> secret:string -> cipher
val block_size : cipher -> int

val padded_len : cipher -> int -> int
(** Ciphertext length (excluding IV) for an n-byte plaintext. *)

val encrypt : cipher -> iv:string -> string -> string
(** Returns [IV ^ ciphertext]. @raise Invalid_argument unless the IV is
    exactly one block. *)

val decrypt : cipher -> string -> string
(** Inverse of {!encrypt}. @raise Bad_padding on malformed input. *)
