(** Common signature implemented by the hash functions in this library. *)

module type S = sig
  val digest_size : int
  (** Size of the digest in bytes. *)

  val block_size : int
  (** Internal block size in bytes (needed by HMAC). *)

  type ctx
  (** Incremental hashing context. *)

  val init : unit -> ctx

  val copy : ctx -> ctx
  (** Independent clone of the running state (HMAC key-context reuse). *)

  type midstate
  (** Frozen running state: an immutable value, safe to share across
      threads (a [ctx] is mutable and single-owner). *)

  val save : ctx -> midstate
  (** Freeze the current state; the context stays usable. *)

  val resume : midstate -> ctx
  (** A fresh private context continuing from the frozen state. *)

  val feed : ctx -> ?off:int -> ?len:int -> string -> unit
  val feed_bytes : ctx -> ?off:int -> ?len:int -> bytes -> unit

  val get : ctx -> string
  (** Finalize a copy of the context; the context stays usable. *)

  val digest : string -> string
  (** One-shot digest. *)

  val digest_bytes : bytes -> string
end
