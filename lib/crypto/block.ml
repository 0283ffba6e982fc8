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
  val cbc_decrypt : key -> bytes -> nblocks:int -> bytes
end

let check_block ~fn ~block_size b off =
  if off < 0 || off > Bytes.length b - block_size then invalid_arg (fn ^ ": block out of range")

let check_chain ~fn ~block_size b ~off ~nblocks =
  if nblocks < 0 || off < block_size || off > Bytes.length b - (nblocks * block_size) then
    invalid_arg (fn ^ ": blocks out of range")

(* [dst.[doff..] <- dst.[doff..] xor src.[soff..]] over one block, a 64-bit
   word at a time (every block size here is a multiple of 8). *)
let xor_block ~block_size dst doff src soff =
  for w = 0 to (block_size / 8) - 1 do
    let i = 8 * w in
    Bytes.set_int64_ne dst (doff + i) (Int64.logxor (Bytes.get_int64_ne dst (doff + i)) (Bytes.get_int64_ne src (soff + i)))
  done

(* Each block XORs against the one before it, already ciphertext (or the
   IV), then encrypts in place — which the aliasing contract allows. *)
let cbc_encrypt ~fn ~block_size encrypt_block key b ~off ~nblocks =
  check_chain ~fn ~block_size b ~off ~nblocks;
  for i = 0 to nblocks - 1 do
    let o = off + (i * block_size) in
    xor_block ~block_size b o b (o - block_size);
    encrypt_block key ~src:b ~src_off:o ~dst:b ~dst_off:o
  done

let cbc_decrypt ~fn ~block_size decrypt_block key src ~nblocks =
  check_chain ~fn ~block_size src ~off:block_size ~nblocks;
  let out = Bytes.create (nblocks * block_size) in
  for i = 0 to nblocks - 1 do
    let o = i * block_size in
    decrypt_block key ~src ~src_off:(o + block_size) ~dst:out ~dst_off:o;
    xor_block ~block_size out o src o
  done;
  out
