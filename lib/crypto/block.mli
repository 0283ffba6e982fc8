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
      and [dst] may alias at the same offset ({!Triple} and {!cbc_encrypt}
      rely on it). *)

  val cbc_encrypt : key -> bytes -> off:int -> nblocks:int -> unit
  (** [cbc_encrypt k b ~off ~nblocks] CBC-encrypts in place the [nblocks]
      blocks of [b] from [off], chaining from the block just before [off]
      (the IV, or the previous ciphertext block): block [i] becomes
      [E (p_i xor c_(i-1))].
      @raise Invalid_argument before writing anything unless
      [block_size <= off] and the blocks lie inside [b]. *)

  val cbc_decrypt : key -> bytes -> nblocks:int -> bytes
  (** [cbc_decrypt k src ~nblocks] reads [src] as [IV ^ ciphertext] and
      returns a fresh buffer holding the first [nblocks] plaintext blocks,
      [D (c_i) xor c_(i-1)]. [src] is only read.
      @raise Invalid_argument unless [0 <= nblocks] and
      [(nblocks + 1) * block_size <= Bytes.length src]. *)
end

val check_block : fn:string -> block_size:int -> bytes -> int -> unit
(** [check_block ~fn ~block_size b off] raises [Invalid_argument] unless
    the [block_size] bytes of [b] at [off] are all in range. Ciphers call it
    on both [src] and [dst] before touching either, so a bad offset never
    leaves a partially written block behind. *)

val check_chain : fn:string -> block_size:int -> bytes -> off:int -> nblocks:int -> unit
(** [check_chain ~fn ~block_size b ~off ~nblocks] raises [Invalid_argument]
    unless [nblocks >= 0], [off >= block_size] and the [nblocks] blocks
    from [off] are in range: the range check of one CBC chain call. *)

(** The one generic CBC chain, over a cipher's single-block functions:
    what {!CIPHER.cbc_encrypt} and {!CIPHER.cbc_decrypt} are for every
    cipher that has no fused kernel. [fn] names the cipher in errors. *)

val cbc_encrypt :
  fn:string ->
  block_size:int ->
  ('k -> src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> unit) ->
  'k ->
  bytes ->
  off:int ->
  nblocks:int ->
  unit

val cbc_decrypt :
  fn:string ->
  block_size:int ->
  ('k -> src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> unit) ->
  'k ->
  bytes ->
  nblocks:int ->
  bytes
