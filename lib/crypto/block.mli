(** Common signature for block ciphers. *)

module type CIPHER = sig
  val name : string

  val block_size : int
  (** Block size in bytes. *)

  val key_size : int
  (** Key size in bytes expected by {!of_secret}. *)

  type key

  val of_secret : string -> key
  (** Expands raw key material into round keys.
      @raise Invalid_argument if the secret has the wrong length. *)

  val encrypt_block : key -> src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> unit
  val decrypt_block : key -> src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> unit
  (** Both load the whole source block before storing into [dst], so [src]
      and [dst] may alias at the same offset ({!Cbc} and {!Triple} rely on
      it). *)
end

val check_block : fn:string -> block_size:int -> bytes -> int -> unit
(** [check_block ~fn ~block_size b off] raises [Invalid_argument] unless
    the [block_size] bytes of [b] at [off] are all in range. Ciphers call it
    on both [src] and [dst] before touching either, so a bad offset never
    leaves a partially written block behind. *)
