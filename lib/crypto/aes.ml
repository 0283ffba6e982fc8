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

let[@inline] word b0 b1 b2 b3 = (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3
let b0 w = (w lsr 24) land 0xff
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

(* Every table and round-key read in the rounds below goes through [at],
   which skips the bounds check. Each index is in range by construction:
   T-table and S-box indices are bytes ([b0]..[b3] mask to [0, 255]) into
   256-entry tables, and round-key indices are constants below 44 into a
   [key], which only [of_secret] builds, always with 44 words. *)
let[@inline] at (t : int array) i = Array.unsafe_get t i

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
   anything is stored, so [src] and [dst] may alias. *)

let load b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF
let store b off w = Bytes.set_int32_be b off (Int32.of_int w)

(* One output column of a round, from round-key word [r]. Encryption reads
   row r of column c from input column c+r (ShiftRows), decryption from
   column c-r; callers pass the four input columns in that order. The
   [last] forms are the final round: S-box only, no MixColumns. *)
let[@inline] enc_col k r x0 x1 x2 x3 =
  at te0 (b0 x0) lxor at te1 (b1 x1) lxor at te2 (b2 x2) lxor at te3 (b3 x3) lxor at k r

let[@inline] dec_col k r x0 x1 x2 x3 =
  at td0 (b0 x0) lxor at td1 (b1 x1) lxor at td2 (b2 x2) lxor at td3 (b3 x3) lxor at k r

let[@inline] enc_last k r x0 x1 x2 x3 =
  word (at sbox (b0 x0)) (at sbox (b1 x1)) (at sbox (b2 x2)) (at sbox (b3 x3)) lxor at k r

let[@inline] dec_last k r x0 x1 x2 x3 =
  word (at inv_sbox (b0 x0)) (at inv_sbox (b1 x1)) (at inv_sbox (b2 x2)) (at inv_sbox (b3 x3)) lxor at k r

let encrypt_block { enc = k; _ } ~src ~src_off ~dst ~dst_off =
  Block.check_block ~fn:"Aes.encrypt_block" ~block_size src src_off;
  Block.check_block ~fn:"Aes.encrypt_block" ~block_size dst dst_off;
  let s0 = ref (load src src_off lxor at k 0)
  and s1 = ref (load src (src_off + 4) lxor at k 1)
  and s2 = ref (load src (src_off + 8) lxor at k 2)
  and s3 = ref (load src (src_off + 12) lxor at k 3) in
  for round = 1 to 9 do
    let r = 4 * round and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := enc_col k r a0 a1 a2 a3;
    s1 := enc_col k (r + 1) a1 a2 a3 a0;
    s2 := enc_col k (r + 2) a2 a3 a0 a1;
    s3 := enc_col k (r + 3) a3 a0 a1 a2
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  store dst dst_off (enc_last k 40 a0 a1 a2 a3);
  store dst (dst_off + 4) (enc_last k 41 a1 a2 a3 a0);
  store dst (dst_off + 8) (enc_last k 42 a2 a3 a0 a1);
  store dst (dst_off + 12) (enc_last k 43 a3 a0 a1 a2)

let decrypt_block { dec = k; _ } ~src ~src_off ~dst ~dst_off =
  Block.check_block ~fn:"Aes.decrypt_block" ~block_size src src_off;
  Block.check_block ~fn:"Aes.decrypt_block" ~block_size dst dst_off;
  let s0 = ref (load src src_off lxor at k 0)
  and s1 = ref (load src (src_off + 4) lxor at k 1)
  and s2 = ref (load src (src_off + 8) lxor at k 2)
  and s3 = ref (load src (src_off + 12) lxor at k 3) in
  for round = 1 to 9 do
    let r = 4 * round and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := dec_col k r a0 a3 a2 a1;
    s1 := dec_col k (r + 1) a1 a0 a3 a2;
    s2 := dec_col k (r + 2) a2 a1 a0 a3;
    s3 := dec_col k (r + 3) a3 a2 a1 a0
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  store dst dst_off (dec_last k 40 a0 a3 a2 a1);
  store dst (dst_off + 4) (dec_last k 41 a1 a0 a3 a2);
  store dst (dst_off + 8) (dec_last k 42 a2 a1 a0 a3);
  store dst (dst_off + 12) (dec_last k 43 a3 a2 a1 a0)

let cbc_encrypt = Block.cbc_encrypt ~fn:"Aes.cbc_encrypt" ~block_size encrypt_block
let cbc_decrypt = Block.cbc_decrypt ~fn:"Aes.cbc_decrypt" ~block_size decrypt_block

(* --- Triple-AES (EDE) CBC, fused ---

   One block of [E_k3 (D_k2 (E_k1 x))] CBC is thirty rounds over the same
   four column words. The kernels below keep those words in locals from
   the chaining XOR through all three passes to the store, fold each
   pass's last round-key add into the next pass's first, and carry the
   chaining value (the previous ciphertext block) in locals too, so a
   block costs four loads, four stores and the table lookups. The range
   is checked once per call. *)

let ede_cbc_encrypt { enc = k1; _ } { dec = k2; _ } { enc = k3; _ } b ~off ~nblocks =
  Block.check_chain ~fn:"Aes.ede_cbc_encrypt" ~block_size b ~off ~nblocks;
  let c0 = ref (load b (off - 16))
  and c1 = ref (load b (off - 12))
  and c2 = ref (load b (off - 8))
  and c3 = ref (load b (off - 4)) in
  for i = 0 to nblocks - 1 do
    let o = off + (16 * i) in
    (* E_k1 of plaintext xor chaining value *)
    let s0 = ref (load b o lxor !c0 lxor at k1 0)
    and s1 = ref (load b (o + 4) lxor !c1 lxor at k1 1)
    and s2 = ref (load b (o + 8) lxor !c2 lxor at k1 2)
    and s3 = ref (load b (o + 12) lxor !c3 lxor at k1 3) in
    for round = 1 to 9 do
      let r = 4 * round and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
      s0 := enc_col k1 r a0 a1 a2 a3;
      s1 := enc_col k1 (r + 1) a1 a2 a3 a0;
      s2 := enc_col k1 (r + 2) a2 a3 a0 a1;
      s3 := enc_col k1 (r + 3) a3 a0 a1 a2
    done;
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := enc_last k1 40 a0 a1 a2 a3 lxor at k2 0;
    s1 := enc_last k1 41 a1 a2 a3 a0 lxor at k2 1;
    s2 := enc_last k1 42 a2 a3 a0 a1 lxor at k2 2;
    s3 := enc_last k1 43 a3 a0 a1 a2 lxor at k2 3;
    (* D_k2 *)
    for round = 1 to 9 do
      let r = 4 * round and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
      s0 := dec_col k2 r a0 a3 a2 a1;
      s1 := dec_col k2 (r + 1) a1 a0 a3 a2;
      s2 := dec_col k2 (r + 2) a2 a1 a0 a3;
      s3 := dec_col k2 (r + 3) a3 a2 a1 a0
    done;
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := dec_last k2 40 a0 a3 a2 a1 lxor at k3 0;
    s1 := dec_last k2 41 a1 a0 a3 a2 lxor at k3 1;
    s2 := dec_last k2 42 a2 a1 a0 a3 lxor at k3 2;
    s3 := dec_last k2 43 a3 a2 a1 a0 lxor at k3 3;
    (* E_k3: the ciphertext block, and the next block's chaining value *)
    for round = 1 to 9 do
      let r = 4 * round and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
      s0 := enc_col k3 r a0 a1 a2 a3;
      s1 := enc_col k3 (r + 1) a1 a2 a3 a0;
      s2 := enc_col k3 (r + 2) a2 a3 a0 a1;
      s3 := enc_col k3 (r + 3) a3 a0 a1 a2
    done;
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    c0 := enc_last k3 40 a0 a1 a2 a3;
    c1 := enc_last k3 41 a1 a2 a3 a0;
    c2 := enc_last k3 42 a2 a3 a0 a1;
    c3 := enc_last k3 43 a3 a0 a1 a2;
    store b o !c0;
    store b (o + 4) !c1;
    store b (o + 8) !c2;
    store b (o + 12) !c3
  done

let ede_cbc_decrypt { dec = k1; _ } { enc = k2; _ } { dec = k3; _ } src ~nblocks =
  Block.check_chain ~fn:"Aes.ede_cbc_decrypt" ~block_size src ~off:block_size ~nblocks;
  let out = Bytes.create (nblocks * block_size) in
  let c0 = ref (load src 0) and c1 = ref (load src 4) and c2 = ref (load src 8) and c3 = ref (load src 12) in
  for i = 0 to nblocks - 1 do
    let o = 16 * (i + 1) in
    let x0 = load src o and x1 = load src (o + 4) and x2 = load src (o + 8) and x3 = load src (o + 12) in
    (* D_k3 *)
    let s0 = ref (x0 lxor at k3 0) and s1 = ref (x1 lxor at k3 1) and s2 = ref (x2 lxor at k3 2) and s3 = ref (x3 lxor at k3 3) in
    for round = 1 to 9 do
      let r = 4 * round and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
      s0 := dec_col k3 r a0 a3 a2 a1;
      s1 := dec_col k3 (r + 1) a1 a0 a3 a2;
      s2 := dec_col k3 (r + 2) a2 a1 a0 a3;
      s3 := dec_col k3 (r + 3) a3 a2 a1 a0
    done;
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := dec_last k3 40 a0 a3 a2 a1 lxor at k2 0;
    s1 := dec_last k3 41 a1 a0 a3 a2 lxor at k2 1;
    s2 := dec_last k3 42 a2 a1 a0 a3 lxor at k2 2;
    s3 := dec_last k3 43 a3 a2 a1 a0 lxor at k2 3;
    (* E_k2 *)
    for round = 1 to 9 do
      let r = 4 * round and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
      s0 := enc_col k2 r a0 a1 a2 a3;
      s1 := enc_col k2 (r + 1) a1 a2 a3 a0;
      s2 := enc_col k2 (r + 2) a2 a3 a0 a1;
      s3 := enc_col k2 (r + 3) a3 a0 a1 a2
    done;
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := enc_last k2 40 a0 a1 a2 a3 lxor at k1 0;
    s1 := enc_last k2 41 a1 a2 a3 a0 lxor at k1 1;
    s2 := enc_last k2 42 a2 a3 a0 a1 lxor at k1 2;
    s3 := enc_last k2 43 a3 a0 a1 a2 lxor at k1 3;
    (* D_k1, then the chaining XOR *)
    for round = 1 to 9 do
      let r = 4 * round and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
      s0 := dec_col k1 r a0 a3 a2 a1;
      s1 := dec_col k1 (r + 1) a1 a0 a3 a2;
      s2 := dec_col k1 (r + 2) a2 a1 a0 a3;
      s3 := dec_col k1 (r + 3) a3 a2 a1 a0
    done;
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    let o = o - 16 in
    store out o (dec_last k1 40 a0 a3 a2 a1 lxor !c0);
    store out (o + 4) (dec_last k1 41 a1 a0 a3 a2 lxor !c1);
    store out (o + 8) (dec_last k1 42 a2 a1 a0 a3 lxor !c2);
    store out (o + 12) (dec_last k1 43 a3 a2 a1 a0 lxor !c3);
    c0 := x0;
    c1 := x1;
    c2 := x2;
    c3 := x3
  done;
  out
