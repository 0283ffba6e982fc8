(** Security context: the keys and algorithms the chunk store uses, or
    no-ops when security is disabled (the paper's plain "TDB" mode).
    Payloads are encrypted (CBC, a fresh IV per seal from the current
    {!session}) and labelled by a one-way hash
    of the stored bytes (encrypt-then-hash — the Merkle labels); the
    anchor and commit chain carry HMAC-SHA256 under separate derived keys. *)

type t = {
  enabled : bool;
  cipher : Tdb_crypto.Cbc.cipher option;
  hash : (module Tdb_crypto.Hash.S);
  hash_len : int;
  mac_key : string;
  mac_pre : Tdb_crypto.Hmac.key;  (** [mac_key] with the HMAC key pads
                                      precompressed — the per-commit MAC
                                      fast path *)
  mutable session : session option;  (** IV source; [None] until
                                         {!start_session} *)
  work : work;  (** the counts {!metrics} reports *)
}

and session
(** A per-session AES-128 key and an atomic count of the seals drawn under
    it. *)

and work
(** Calls and input bytes of {!seal}, {!unseal}, {!unseal_prefix},
    {!label} and {!mac}; atomic counters, no clock reads. *)

val create : Config.t -> Tdb_platform.Secret_store.t -> t
(** No session yet: {!draw_iv} (and {!seal}) refuse until {!start_session}
    runs. MACs, labels and {!unseal} need none. *)

val start_session : t -> Tdb_platform.Secret_store.t -> counter:int64 -> epoch:int -> unit
(** Key a fresh IV session from the secret, the one-way counter value at open and the anchor epoch the open's closing
    checkpoint writes; the seal count restarts at 0. Coordinator-only, and
    before the session's first seal. No-op when security is off. *)

val seal : t -> string -> string
(** Encrypt for storage under the next {!draw_iv} (identity when security
    is off). *)

val draw_iv : t -> string option
(** Draw the IV for one {!seal}: [AES_ks(n)] for the session's [n]th
    seal, truncated to the cipher's block size. Advancing the count is the
    only effectful step of sealing. IV draws must happen in deterministic
    operation order, so sealing runs under the object store's state mutex. [None] iff security is off.
    @raise Invalid_argument if security is on and no session started. *)

val unseal : t -> string -> string
(** Pure (reads only the cipher); safe to run on any thread.
    @raise Types.Tamper_detected on malformed padding. *)

val unseal_prefix : t -> string -> len:int -> string
(** The first [len] bytes of the plaintext (fewer if it is shorter; with
    security on, padding bytes may follow a shorter plaintext), decrypting
    only the cipher blocks that hold them. Unauthenticated and
    padding-unchecked: a hint, never trusted data.
    @raise Types.Tamper_detected on a malformed ciphertext. *)

val label : t -> string -> string
(** Digest of stored bytes — the Merkle label ("" when disabled). *)

val check_label : t -> expected:string -> string -> what:(unit -> string) -> unit
(** [what] names the record in the tamper message; it is called only on a
    mismatch, so the hot path formats nothing.
    @raise Types.Tamper_detected on mismatch (no-op when disabled). *)

val mac : t -> string -> string
(** HMAC under the anchor key; degrades to a plain digest when security is
    off (torn-write detection only, no forgery resistance). *)

val mac_len : int
val check_mac : t -> expected:string -> string -> what:string -> bool

val metrics : t -> Metrics.t
(** The crypto work since {!create}: [security.seals] / [seal_bytes]
    (plaintext bytes), [unseals] / [unseal_bytes] (stored bytes),
    [prefixes] / [prefix_bytes] ({!unseal_prefix}: prefix bytes
    decrypted),
    [labels] / [label_bytes] (stored bytes hashed, {!check_label}
    included) and [macs] / [mac_bytes] ({!check_mac} included). Seals,
    unseals and labels count only when they run: with security off, none
    do; a MAC always runs. *)

val seal_overhead : t -> int -> int
(** Storage overhead (IV + padding) of sealing an n-byte payload. *)
