(** CBC mode with PKCS#7 padding over any {!Block.CIPHER}.

    The chunk store encrypts every chunk in CBC with a fresh IV prepended to
    the ciphertext. PKCS#7 padding reproduces the per-chunk "padding for
    block encryption" storage overhead the paper measures for TDB-S.

    This is the storage hot path: every sealed record passes through here
    once per write and once per (cache-missing) read. Each direction is one
    call into the cipher's CBC chain ({!Block.CIPHER.cbc_encrypt} in place
    over one buffer, {!Block.CIPHER.cbc_decrypt} into a fresh one), so the
    chaining XOR runs inside the cipher's kernel, not byte by byte here. *)

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
  (* One buffer holds IV ^ padded plaintext and becomes IV ^ ciphertext
     in one chain call. *)
  let out = Bytes.create (bs + n + pad) in
  Bytes.blit_string iv 0 out 0 bs;
  Bytes.blit_string plain 0 out bs n;
  Bytes.fill out (bs + n) pad (Char.chr pad);
  C.cbc_encrypt key out ~off:bs ~nblocks:((n + pad) / bs);
  Bytes.unsafe_to_string out

(* CBC-decrypt the first [nblocks] ciphertext blocks of [IV ^ ciphertext]
   into a fresh buffer. Read-only view: the chain only loads from its
   source, so the ciphertext is never copied. *)
let decrypt_blocks (Cipher ((module C), key)) (data : string) ~(nblocks : int) : bytes =
  C.cbc_decrypt key (Bytes.unsafe_of_string data) ~nblocks

(* Ciphertext length (excluding IV) of a well-formed [IV ^ ciphertext]. *)
let body_len c (data : string) : int =
  let bs = block_size c in
  let total = String.length data in
  if total < 2 * bs || (total - bs) mod bs <> 0 then raise Bad_padding;
  total - bs

(** Inverse of {!encrypt}. Padding is validated in constant time (the
    classic CBC padding-oracle countermeasure): every candidate pad byte is
    inspected with {!Ct} masks and a single data-independent branch decides
    validity at the end. @raise Bad_padding on malformed input. *)
let decrypt c (data : string) : string =
  let bs = block_size c in
  let n = body_len c data in
  let out = decrypt_blocks c data ~nblocks:(n / bs) in
  let pad = Char.code (Bytes.get out (n - 1)) in
  (* bad <> 0 iff pad is out of [1, bs] or any of the last [pad] bytes
     differs from [pad]; the loop always scans a full block. *)
  let bad = ref (Ct.lt_mask pad 1 lor Ct.lt_mask bs pad) in
  for i = 0 to bs - 1 do
    let byte = Char.code (Bytes.get out (n - 1 - i)) in
    bad := !bad lor (Ct.lt_mask i pad land (byte lxor pad))
  done;
  if !bad <> 0 then raise Bad_padding;
  Bytes.sub_string out 0 (n - pad)

(** The first [len] bytes of the padded plaintext: decrypts only the
    [ceil (len / bs)] blocks that hold them and checks no padding, so a
    reader after a record's leading fields pays for those blocks alone.
    @raise Bad_padding on a malformed ciphertext or [len] outside
    [\[0, ciphertext length\]]. *)
let decrypt_prefix c (data : string) ~(len : int) : string =
  let bs = block_size c in
  if len < 0 || len > body_len c data then raise Bad_padding;
  Bytes.sub_string (decrypt_blocks c data ~nblocks:((len + bs - 1) / bs)) 0 len
