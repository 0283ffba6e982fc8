(** CBC mode with PKCS#7 padding over any {!Block.CIPHER}.

    The chunk store encrypts every chunk in CBC with a fresh IV prepended to
    the ciphertext. PKCS#7 padding reproduces the per-chunk "padding for
    block encryption" storage overhead the paper measures for TDB-S.

    This is the storage hot path: every sealed record passes through here
    once per write and once per (cache-missing) read, so both directions
    work in a single output buffer with no per-block temporaries. The
    in-place [encrypt] relies on a {!Block.CIPHER} contract every cipher in
    this library honours: [encrypt_block]/[decrypt_block] load the whole
    source block before storing the destination, so [src] and [dst] may
    alias at the same offset. *)

exception Bad_padding

(** A cipher instance packaged with its expanded key, so upper layers can
    select the cipher at run time (TDB's modular configuration). *)
type cipher = Cipher : (module Block.CIPHER with type key = 'k) * 'k -> cipher

let make (module C : Block.CIPHER) ~(secret : string) : cipher =
  Cipher ((module C), C.of_secret secret)

let block_size (Cipher ((module C), _)) = C.block_size

(** [padded_len c n] is the ciphertext length (excluding IV) for an [n]-byte
    plaintext: next multiple of the block size, always adding 1..bs bytes. *)
let padded_len (Cipher ((module C), _)) n = n + C.block_size - (n mod C.block_size)

(** [encrypt c ~iv plain] returns [iv-sized IV ^ ciphertext]. The IV must be
    exactly one block. *)
let encrypt (Cipher ((module C), key)) ~(iv : string) (plain : string) : string =
  let bs = C.block_size in
  if String.length iv <> bs then invalid_arg "Cbc.encrypt: IV must be one block";
  let n = String.length plain in
  let pad = bs - (n mod bs) in
  (* One buffer holds IV ^ padded plaintext and becomes IV ^ ciphertext:
     block b XORs against the previous block — already ciphertext (or the
     IV) — then encrypts in place. *)
  let out = Bytes.create (bs + n + pad) in
  Bytes.blit_string iv 0 out 0 bs;
  Bytes.blit_string plain 0 out bs n;
  Bytes.fill out (bs + n) pad (Char.chr pad);
  let nblocks = (n + pad) / bs in
  for b = 0 to nblocks - 1 do
    let off = bs + (b * bs) in
    let prev = off - bs in
    for i = 0 to bs - 1 do
      (* in bounds: off + i < bs + n + pad = length out *)
      Bytes.unsafe_set out (off + i)
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get out (off + i)) lxor Char.code (Bytes.unsafe_get out (prev + i))))
    done;
    C.encrypt_block key ~src:out ~src_off:off ~dst:out ~dst_off:off
  done;
  Bytes.unsafe_to_string out

(** Inverse of {!encrypt}. Padding is validated in constant time (the
    classic CBC padding-oracle countermeasure): every candidate pad byte is
    inspected with {!Ct} masks and a single data-independent branch decides
    validity at the end. @raise Bad_padding on malformed input. *)
let decrypt (Cipher ((module C), key)) (data : string) : string =
  let bs = C.block_size in
  let total = String.length data in
  if total < 2 * bs || (total - bs) mod bs <> 0 then raise Bad_padding;
  let nblocks = (total - bs) / bs in
  (* Read-only view: [decrypt_block] only loads from [src], and the XOR
     below only reads [data] through string accessors, so the ciphertext
     is never copied. *)
  let src = Bytes.unsafe_of_string data in
  let n = total - bs in
  let out = Bytes.create n in
  for b = 0 to nblocks - 1 do
    let doff = b * bs in
    C.decrypt_block key ~src ~src_off:(bs + doff) ~dst:out ~dst_off:doff;
    (* XOR with previous ciphertext block (or IV for the first block). *)
    for i = 0 to bs - 1 do
      (* in bounds: doff + i < n and doff + i < total *)
      Bytes.unsafe_set out (doff + i)
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get out (doff + i)) lxor Char.code (String.unsafe_get data (doff + i))))
    done
  done;
  let pad = Char.code (Bytes.unsafe_get out (n - 1)) in
  (* bad <> 0 iff pad is out of [1, bs] or any of the last [pad] bytes
     differs from [pad]; the loop always scans a full block. *)
  let bad = ref (Ct.lt_mask pad 1 lor Ct.lt_mask bs pad) in
  for i = 0 to bs - 1 do
    let byte = Char.code (Bytes.unsafe_get out (n - 1 - i)) in
    bad := !bad lor (Ct.lt_mask i pad land (byte lxor pad))
  done;
  if !bad <> 0 then raise Bad_padding;
  Bytes.sub_string out 0 (n - pad)
