(** AES-128 (FIPS 197), implemented from first principles.

    Instead of a hard-coded S-box, the substitution table is computed from
    its mathematical definition (multiplicative inverse in GF(2^8) followed
    by the affine transform), and the round constants by repeated doubling
    in the field. The FIPS-197 appendix vector pins correctness in the test
    suite.

    Rounds run on 32-bit column words through T-tables (SubBytes, ShiftRows
    and MixColumns fused into four lookups per column), themselves derived
    from the computed S-boxes and [gmul]. Every lookup is indexed by a
    secret-dependent byte, as in any table-driven AES, so the kernel is not
    constant-time against a cache observer sharing the processor — outside
    TDB's trusted-processor threat model (DESIGN.md, "Substitutions").

    TDB's paper used 3DES; we substitute AES (and {!Triple} over it for a
    3DES-like three-pass cost profile) — see DESIGN.md, "Substitutions". *)

let name = "aes128"
let block_size = 16
let key_size = 16

(* --- GF(2^8) arithmetic with the AES reduction polynomial x^8+x^4+x^3+x+1 --- *)

let xtime x =
  let x2 = x lsl 1 in
  if x land 0x80 <> 0 then (x2 lxor 0x1b) land 0xff else x2

let gmul a b =
  let acc = ref 0 and a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 <> 0 then acc := !acc lxor !a;
    a := xtime !a;
    b := !b lsr 1
  done;
  !acc

let ginv =
  (* brute-force inverse table; ginv.(0) = 0 by AES convention *)
  let t = Array.make 256 0 in
  for x = 1 to 255 do
    let y = ref 1 in
    while gmul x !y <> 1 do
      incr y
    done;
    t.(x) <- !y
  done;
  t

let sbox =
  let rotl8 b n = ((b lsl n) lor (b lsr (8 - n))) land 0xff in
  Array.init 256 (fun x ->
      let b = ginv.(x) in
      b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63)

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i s -> t.(s) <- i) sbox;
  t

(* --- T-tables ---

   One round of SubBytes + ShiftRows + MixColumns on a column is four
   lookups: [te0.(x)] is the MixColumns column (2,1,1,3)·S(x) packed big-
   endian into a 32-bit word, and [te1..te3] are its byte rotations, one per
   row. [td0..td3] do the same for InvSubBytes + InvMixColumns with the
   column (14,9,13,11)·S⁻¹(x). All eight are derived from the computed
   S-boxes and [gmul], so no constant here is memorized. *)

let word b0 b1 b2 b3 = (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3
let b0 w = w lsr 24
let b1 w = (w lsr 16) land 0xff
let b2 w = (w lsr 8) land 0xff
let b3 w = w land 0xff
let ror8 w = ((w lsr 8) lor (w lsl 24)) land 0xFFFFFFFF

let rotations t0 =
  let t1 = Array.map ror8 t0 in
  let t2 = Array.map ror8 t1 in
  (t0, t1, t2, Array.map ror8 t2)

let te0, te1, te2, te3 =
  rotations (Array.map (fun s -> word (gmul s 2) s s (gmul s 3)) sbox)

let td0, td1, td2, td3 =
  rotations (Array.map (fun s -> word (gmul s 14) (gmul s 9) (gmul s 13) (gmul s 11)) inv_sbox)

(* [enc]: the FIPS-197 key schedule, 44 words, round r at [4r..4r+3].
   [dec]: the equivalent inverse cipher's schedule (FIPS-197 §5.3.5), in
   the order decryption consumes it — round 10's words first, round 0's
   last, and rounds 1–9 passed through InvMixColumns. *)
type key = { enc : int array; dec : int array }

let inv_mix_column w =
  (* td tables apply S⁻¹ first; feed them S(byte) so only InvMixColumns remains *)
  td0.(sbox.(b0 w)) lxor td1.(sbox.(b1 w)) lxor td2.(sbox.(b2 w)) lxor td3.(sbox.(b3 w))

let of_secret secret =
  if String.length secret <> key_size then invalid_arg "Aes.of_secret: need 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <- Int32.to_int (String.get_int32_be secret (4 * i)) land 0xFFFFFFFF
  done;
  let sub_word x = word sbox.(b0 x) sbox.(b1 x) sbox.(b2 x) sbox.(b3 x) in
  let rot_word x = ((x lsl 8) lor (x lsr 24)) land 0xFFFFFFFF in
  let rcon = ref 1 in
  for i = 4 to 43 do
    let t = w.(i - 1) in
    let t = if i mod 4 = 0 then sub_word (rot_word t) lxor (!rcon lsl 24) else t in
    if i mod 4 = 0 then rcon := xtime !rcon;
    w.(i) <- w.(i - 4) lxor t
  done;
  let dec =
    Array.init 44 (fun i ->
        let round = 10 - (i / 4) and c = i mod 4 in
        let k = w.((4 * round) + c) in
        if round = 0 || round = 10 then k else inv_mix_column k)
  in
  { enc = w; dec }

(* The state is four 32-bit column words, big-endian: byte (row r, column c)
   sits at bits 24-8r of [s_c]. The whole source block is loaded before
   anything is stored, so [src] and [dst] may alias (see {!Cbc}). *)

let load b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF
let store b off w = Bytes.set_int32_be b off (Int32.of_int w)

let encrypt_block { enc = k; _ } ~src ~src_off ~dst ~dst_off =
  Block.check_block ~fn:"Aes.encrypt_block" ~block_size src src_off;
  Block.check_block ~fn:"Aes.encrypt_block" ~block_size dst dst_off;
  let s0 = ref (load src src_off lxor k.(0))
  and s1 = ref (load src (src_off + 4) lxor k.(1))
  and s2 = ref (load src (src_off + 8) lxor k.(2))
  and s3 = ref (load src (src_off + 12) lxor k.(3)) in
  (* rounds 1-9: row r of output column c comes from input column c+r *)
  for round = 1 to 9 do
    let r = 4 * round and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := te0.(b0 a0) lxor te1.(b1 a1) lxor te2.(b2 a2) lxor te3.(b3 a3) lxor k.(r);
    s1 := te0.(b0 a1) lxor te1.(b1 a2) lxor te2.(b2 a3) lxor te3.(b3 a0) lxor k.(r + 1);
    s2 := te0.(b0 a2) lxor te1.(b1 a3) lxor te2.(b2 a0) lxor te3.(b3 a1) lxor k.(r + 2);
    s3 := te0.(b0 a3) lxor te1.(b1 a0) lxor te2.(b2 a1) lxor te3.(b3 a2) lxor k.(r + 3)
  done;
  (* round 10: SubBytes + ShiftRows, no MixColumns *)
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  let last x0 x1 x2 x3 kw = word sbox.(b0 x0) sbox.(b1 x1) sbox.(b2 x2) sbox.(b3 x3) lxor kw in
  store dst dst_off (last a0 a1 a2 a3 k.(40));
  store dst (dst_off + 4) (last a1 a2 a3 a0 k.(41));
  store dst (dst_off + 8) (last a2 a3 a0 a1 k.(42));
  store dst (dst_off + 12) (last a3 a0 a1 a2 k.(43))

let decrypt_block { dec = k; _ } ~src ~src_off ~dst ~dst_off =
  Block.check_block ~fn:"Aes.decrypt_block" ~block_size src src_off;
  Block.check_block ~fn:"Aes.decrypt_block" ~block_size dst dst_off;
  let s0 = ref (load src src_off lxor k.(0))
  and s1 = ref (load src (src_off + 4) lxor k.(1))
  and s2 = ref (load src (src_off + 8) lxor k.(2))
  and s3 = ref (load src (src_off + 12) lxor k.(3)) in
  (* rounds 9-1: row r of output column c comes from input column c-r *)
  for round = 1 to 9 do
    let r = 4 * round and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := td0.(b0 a0) lxor td1.(b1 a3) lxor td2.(b2 a2) lxor td3.(b3 a1) lxor k.(r);
    s1 := td0.(b0 a1) lxor td1.(b1 a0) lxor td2.(b2 a3) lxor td3.(b3 a2) lxor k.(r + 1);
    s2 := td0.(b0 a2) lxor td1.(b1 a1) lxor td2.(b2 a0) lxor td3.(b3 a3) lxor k.(r + 2);
    s3 := td0.(b0 a3) lxor td1.(b1 a2) lxor td2.(b2 a1) lxor td3.(b3 a0) lxor k.(r + 3)
  done;
  (* round 0: InvSubBytes + InvShiftRows, no InvMixColumns *)
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  let last x0 x1 x2 x3 kw = word inv_sbox.(b0 x0) inv_sbox.(b1 x1) inv_sbox.(b2 x2) inv_sbox.(b3 x3) lxor kw in
  store dst dst_off (last a0 a3 a2 a1 k.(40));
  store dst (dst_off + 4) (last a1 a0 a3 a2 k.(41));
  store dst (dst_off + 8) (last a2 a1 a0 a3 k.(42));
  store dst (dst_off + 12) (last a3 a2 a1 a0 k.(43))
