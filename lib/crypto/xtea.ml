(** XTEA (Needham & Wheeler, 1997): a 64-bit-block, 128-bit-key cipher.

    Provided as the small-code-footprint cipher option — TDB trades
    functionality for footprint (Section 6), and XTEA is a few dozen lines
    against AES's few hundred. Its 8-byte block also mirrors DES's block
    size, so padding overhead per chunk matches the paper's 3DES setup. *)

let name = "xtea"
let block_size = 8
let key_size = 16
let rounds = 32
let delta = 0x9E3779B9
let mask = 0xFFFFFFFF

type key = int array (* 4 32-bit words *)

let of_secret secret =
  if String.length secret <> key_size then invalid_arg "Xtea.of_secret: need 16 bytes";
  Array.init 4 (fun i ->
      (Char.code secret.[4 * i] lsl 24)
      lor (Char.code secret.[(4 * i) + 1] lsl 16)
      lor (Char.code secret.[(4 * i) + 2] lsl 8)
      lor Char.code secret.[(4 * i) + 3])

let get32 b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let put32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let encrypt_block (k : key) ~src ~src_off ~dst ~dst_off =
  Block.check_block ~fn:"Xtea.encrypt_block" ~block_size src src_off;
  Block.check_block ~fn:"Xtea.encrypt_block" ~block_size dst dst_off;
  let v0 = ref (get32 src src_off) and v1 = ref (get32 src (src_off + 4)) in
  let sum = ref 0 in
  for _ = 1 to rounds do
    v0 := (!v0 + ((((!v1 lsl 4) lxor (!v1 lsr 5)) + !v1) lxor (!sum + k.(!sum land 3)))) land mask;
    sum := (!sum + delta) land mask;
    v1 := (!v1 + ((((!v0 lsl 4) lxor (!v0 lsr 5)) + !v0) lxor (!sum + k.((!sum lsr 11) land 3)))) land mask
  done;
  put32 dst dst_off !v0;
  put32 dst (dst_off + 4) !v1

let decrypt_block (k : key) ~src ~src_off ~dst ~dst_off =
  Block.check_block ~fn:"Xtea.decrypt_block" ~block_size src src_off;
  Block.check_block ~fn:"Xtea.decrypt_block" ~block_size dst dst_off;
  let v0 = ref (get32 src src_off) and v1 = ref (get32 src (src_off + 4)) in
  let sum = ref (delta * rounds land mask) in
  for _ = 1 to rounds do
    v1 := (!v1 - ((((!v0 lsl 4) lxor (!v0 lsr 5)) + !v0) lxor (!sum + k.((!sum lsr 11) land 3)))) land mask;
    sum := (!sum - delta) land mask;
    v0 := (!v0 - ((((!v1 lsl 4) lxor (!v1 lsr 5)) + !v1) lxor (!sum + k.(!sum land 3)))) land mask
  done;
  put32 dst dst_off !v0;
  put32 dst (dst_off + 4) !v1
