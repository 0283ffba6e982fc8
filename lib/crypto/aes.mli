(** AES-128 (FIPS 197), implemented from first principles: the S-box is
    computed from its definition (GF(2^8) inverse + affine map) instead of
    a hard-coded table, and the FIPS-197 appendix vector pins correctness.
    The rounds use T-tables derived from that S-box, one lookup per byte.
    [src] and [dst] may alias at the same offset; both ranges are checked
    before anything is written.
    Stands in for the paper's 3DES (see DESIGN.md, "Substitutions"). *)

include Block.CIPHER
