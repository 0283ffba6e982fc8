(** AES-128 (FIPS 197), implemented from first principles: the S-box is
    computed from its definition (GF(2^8) inverse + affine map) instead of
    a hard-coded table, and the FIPS-197 appendix vector pins correctness.
    The rounds use T-tables derived from that S-box, one lookup per byte.
    [src] and [dst] may alias at the same offset; both ranges are checked
    before anything is written.
    Stands in for the paper's 3DES (see DESIGN.md, "Substitutions"). *)

include Block.CIPHER

val ede_cbc_encrypt : key -> key -> key -> bytes -> off:int -> nblocks:int -> unit
(** [ede_cbc_encrypt k1 k2 k3] is {!Block.CIPHER.cbc_encrypt} for the
    EDE composition [E_k3 (D_k2 (E_k1 x))]: one fused kernel that keeps the
    block in four column words through the chaining XOR and all three
    passes ({!Triple.Aes3}'s chain). Same range check and contract. *)

val ede_cbc_decrypt : key -> key -> key -> bytes -> nblocks:int -> bytes
(** [ede_cbc_decrypt k1 k2 k3] is {!Block.CIPHER.cbc_decrypt} for the
    same composition, [D_k1 (E_k2 (D_k3 c))] xor the previous block. *)
