(** Triple-cipher EDE construction, generic over any block cipher.

    [Triple.Make (C)] encrypts as [E_k3 (D_k2 (E_k1 x))], the classic 3DES
    composition. The paper configures TDB-S with 3DES; [Make (Aes)] (or
    [Make (Xtea)]) reproduces the three-pass CPU cost of that configuration
    with a cipher we can verify offline (see DESIGN.md, "Substitutions").
    [Aes3] chains its CBC through the fused kernel in {!Aes}; every other
    instance through the generic one in {!Block}. *)

(* The EDE block functions, without a CBC chain. *)
module Ede (C : Block.CIPHER) = struct
  let name = "3" ^ C.name
  let block_size = C.block_size
  let key_size = 3 * C.key_size

  type key = { k1 : C.key; k2 : C.key; k3 : C.key }

  let of_secret secret =
    if String.length secret <> key_size then
      invalid_arg (Printf.sprintf "Triple(%s).of_secret: need %d bytes" C.name key_size);
    {
      k1 = C.of_secret (String.sub secret 0 C.key_size);
      k2 = C.of_secret (String.sub secret C.key_size C.key_size);
      k3 = C.of_secret (String.sub secret (2 * C.key_size) C.key_size);
    }

  (* The first pass lands in [dst]; the other two run in place there, which
     the {!Block.CIPHER} aliasing contract (src and dst may alias at the same
     offset) allows. No per-block temporary. *)
  let encrypt_block { k1; k2; k3 } ~src ~src_off ~dst ~dst_off =
    C.encrypt_block k1 ~src ~src_off ~dst ~dst_off;
    C.decrypt_block k2 ~src:dst ~src_off:dst_off ~dst ~dst_off;
    C.encrypt_block k3 ~src:dst ~src_off:dst_off ~dst ~dst_off

  let decrypt_block { k1; k2; k3 } ~src ~src_off ~dst ~dst_off =
    C.decrypt_block k3 ~src ~src_off ~dst ~dst_off;
    C.encrypt_block k2 ~src:dst ~src_off:dst_off ~dst ~dst_off;
    C.decrypt_block k1 ~src:dst ~src_off:dst_off ~dst ~dst_off
end

module Make (C : Block.CIPHER) : Block.CIPHER = struct
  include Ede (C)

  let cbc_encrypt = Block.cbc_encrypt ~fn:(name ^ ".cbc_encrypt") ~block_size encrypt_block
  let cbc_decrypt = Block.cbc_decrypt ~fn:(name ^ ".cbc_decrypt") ~block_size decrypt_block
end

module Aes3 : Block.CIPHER = struct
  include Ede (Aes)

  let cbc_encrypt { k1; k2; k3 } b ~off ~nblocks = Aes.ede_cbc_encrypt k1 k2 k3 b ~off ~nblocks
  let cbc_decrypt { k1; k2; k3 } src ~nblocks = Aes.ede_cbc_decrypt k1 k2 k3 src ~nblocks
end

module Xtea3 = Make (Xtea)
