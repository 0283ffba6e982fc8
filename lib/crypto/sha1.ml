(** SHA-1 (FIPS 180-4), implemented from scratch.

    TDB uses SHA-1 for the Merkle hash tree embedded in the chunk-store
    location map, matching the paper's configuration (Section 7.3). All
    arithmetic is done on the native [int] masked to 32 bits. *)

let digest_size = 20
let block_size = 64

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  mutable total : int; (* total bytes fed *)
  buf : Bytes.t; (* partial block *)
  mutable buf_len : int;
}

let init () =
  {
    h0 = 0x67452301;
    h1 = 0xEFCDAB89;
    h2 = 0x98BADCFE;
    h3 = 0x10325476;
    h4 = 0xC3D2E1F0;
    total = 0;
    buf = Bytes.create block_size;
    buf_len = 0;
  }

let copy c = { c with buf = Bytes.copy c.buf }
let mask = 0xFFFFFFFF
let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

(* Big-endian message word [i] of the block at [off]. *)
let[@inline] word s off i = Int32.to_int (String.get_int32_be s (off + (4 * i))) land mask

(* Schedule word t from words t-3, t-8, t-14 and t-16. *)
let[@inline] sched w3 w8 w14 w16 = rotl (w3 lxor w8 lxor w14 lxor w16) 1

(* One round of each quarter: the new [a] from [a..e] and word [w]. *)
let[@inline] r1 a b c d e w = (rotl a 5 + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + w) land mask
let[@inline] r2 a b c d e w = (rotl a 5 + (b lxor c lxor d) + e + 0x6ED9EBA1 + w) land mask
let[@inline] r3 a b c d e w = (rotl a 5 + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + w) land mask
let[@inline] r4 a b c d e w = (rotl a 5 + (b lxor c lxor d) + e + 0xCA62C1D6 + w) land mask

(* Process one 64-byte block starting at [off] in [b]. The 80 rounds are
   unrolled and the message schedule lives in locals, each word computed
   just before the round that first reads it, so no array is touched.
   Rather than shifting the five state words each round, the names
   rotate: round t binds its new [a] to the name that held [e] and
   rotates [b] in place, so after every fifth round the names are back
   in order. *)
let process ctx (s : string) (off : int) =
  if off < 0 || off + block_size > String.length s then invalid_arg "Sha1.process";
  let w0 = word s off 0 in
  let w1 = word s off 1 in
  let w2 = word s off 2 in
  let w3 = word s off 3 in
  let w4 = word s off 4 in
  let w5 = word s off 5 in
  let w6 = word s off 6 in
  let w7 = word s off 7 in
  let w8 = word s off 8 in
  let w9 = word s off 9 in
  let w10 = word s off 10 in
  let w11 = word s off 11 in
  let w12 = word s off 12 in
  let w13 = word s off 13 in
  let w14 = word s off 14 in
  let w15 = word s off 15 in
  let a = ctx.h0 and b = ctx.h1 and c = ctx.h2 and d = ctx.h3 and e = ctx.h4 in
  let e = r1 a b c d e w0 and b = rotl b 30 in
  let d = r1 e a b c d w1 and a = rotl a 30 in
  let c = r1 d e a b c w2 and e = rotl e 30 in
  let b = r1 c d e a b w3 and d = rotl d 30 in
  let a = r1 b c d e a w4 and c = rotl c 30 in
  let e = r1 a b c d e w5 and b = rotl b 30 in
  let d = r1 e a b c d w6 and a = rotl a 30 in
  let c = r1 d e a b c w7 and e = rotl e 30 in
  let b = r1 c d e a b w8 and d = rotl d 30 in
  let a = r1 b c d e a w9 and c = rotl c 30 in
  let e = r1 a b c d e w10 and b = rotl b 30 in
  let d = r1 e a b c d w11 and a = rotl a 30 in
  let c = r1 d e a b c w12 and e = rotl e 30 in
  let b = r1 c d e a b w13 and d = rotl d 30 in
  let a = r1 b c d e a w14 and c = rotl c 30 in
  let e = r1 a b c d e w15 and b = rotl b 30 in
  let w16 = sched w13 w8 w2 w0 in
  let d = r1 e a b c d w16 and a = rotl a 30 in
  let w17 = sched w14 w9 w3 w1 in
  let c = r1 d e a b c w17 and e = rotl e 30 in
  let w18 = sched w15 w10 w4 w2 in
  let b = r1 c d e a b w18 and d = rotl d 30 in
  let w19 = sched w16 w11 w5 w3 in
  let a = r1 b c d e a w19 and c = rotl c 30 in
  let w20 = sched w17 w12 w6 w4 in
  let e = r2 a b c d e w20 and b = rotl b 30 in
  let w21 = sched w18 w13 w7 w5 in
  let d = r2 e a b c d w21 and a = rotl a 30 in
  let w22 = sched w19 w14 w8 w6 in
  let c = r2 d e a b c w22 and e = rotl e 30 in
  let w23 = sched w20 w15 w9 w7 in
  let b = r2 c d e a b w23 and d = rotl d 30 in
  let w24 = sched w21 w16 w10 w8 in
  let a = r2 b c d e a w24 and c = rotl c 30 in
  let w25 = sched w22 w17 w11 w9 in
  let e = r2 a b c d e w25 and b = rotl b 30 in
  let w26 = sched w23 w18 w12 w10 in
  let d = r2 e a b c d w26 and a = rotl a 30 in
  let w27 = sched w24 w19 w13 w11 in
  let c = r2 d e a b c w27 and e = rotl e 30 in
  let w28 = sched w25 w20 w14 w12 in
  let b = r2 c d e a b w28 and d = rotl d 30 in
  let w29 = sched w26 w21 w15 w13 in
  let a = r2 b c d e a w29 and c = rotl c 30 in
  let w30 = sched w27 w22 w16 w14 in
  let e = r2 a b c d e w30 and b = rotl b 30 in
  let w31 = sched w28 w23 w17 w15 in
  let d = r2 e a b c d w31 and a = rotl a 30 in
  let w32 = sched w29 w24 w18 w16 in
  let c = r2 d e a b c w32 and e = rotl e 30 in
  let w33 = sched w30 w25 w19 w17 in
  let b = r2 c d e a b w33 and d = rotl d 30 in
  let w34 = sched w31 w26 w20 w18 in
  let a = r2 b c d e a w34 and c = rotl c 30 in
  let w35 = sched w32 w27 w21 w19 in
  let e = r2 a b c d e w35 and b = rotl b 30 in
  let w36 = sched w33 w28 w22 w20 in
  let d = r2 e a b c d w36 and a = rotl a 30 in
  let w37 = sched w34 w29 w23 w21 in
  let c = r2 d e a b c w37 and e = rotl e 30 in
  let w38 = sched w35 w30 w24 w22 in
  let b = r2 c d e a b w38 and d = rotl d 30 in
  let w39 = sched w36 w31 w25 w23 in
  let a = r2 b c d e a w39 and c = rotl c 30 in
  let w40 = sched w37 w32 w26 w24 in
  let e = r3 a b c d e w40 and b = rotl b 30 in
  let w41 = sched w38 w33 w27 w25 in
  let d = r3 e a b c d w41 and a = rotl a 30 in
  let w42 = sched w39 w34 w28 w26 in
  let c = r3 d e a b c w42 and e = rotl e 30 in
  let w43 = sched w40 w35 w29 w27 in
  let b = r3 c d e a b w43 and d = rotl d 30 in
  let w44 = sched w41 w36 w30 w28 in
  let a = r3 b c d e a w44 and c = rotl c 30 in
  let w45 = sched w42 w37 w31 w29 in
  let e = r3 a b c d e w45 and b = rotl b 30 in
  let w46 = sched w43 w38 w32 w30 in
  let d = r3 e a b c d w46 and a = rotl a 30 in
  let w47 = sched w44 w39 w33 w31 in
  let c = r3 d e a b c w47 and e = rotl e 30 in
  let w48 = sched w45 w40 w34 w32 in
  let b = r3 c d e a b w48 and d = rotl d 30 in
  let w49 = sched w46 w41 w35 w33 in
  let a = r3 b c d e a w49 and c = rotl c 30 in
  let w50 = sched w47 w42 w36 w34 in
  let e = r3 a b c d e w50 and b = rotl b 30 in
  let w51 = sched w48 w43 w37 w35 in
  let d = r3 e a b c d w51 and a = rotl a 30 in
  let w52 = sched w49 w44 w38 w36 in
  let c = r3 d e a b c w52 and e = rotl e 30 in
  let w53 = sched w50 w45 w39 w37 in
  let b = r3 c d e a b w53 and d = rotl d 30 in
  let w54 = sched w51 w46 w40 w38 in
  let a = r3 b c d e a w54 and c = rotl c 30 in
  let w55 = sched w52 w47 w41 w39 in
  let e = r3 a b c d e w55 and b = rotl b 30 in
  let w56 = sched w53 w48 w42 w40 in
  let d = r3 e a b c d w56 and a = rotl a 30 in
  let w57 = sched w54 w49 w43 w41 in
  let c = r3 d e a b c w57 and e = rotl e 30 in
  let w58 = sched w55 w50 w44 w42 in
  let b = r3 c d e a b w58 and d = rotl d 30 in
  let w59 = sched w56 w51 w45 w43 in
  let a = r3 b c d e a w59 and c = rotl c 30 in
  let w60 = sched w57 w52 w46 w44 in
  let e = r4 a b c d e w60 and b = rotl b 30 in
  let w61 = sched w58 w53 w47 w45 in
  let d = r4 e a b c d w61 and a = rotl a 30 in
  let w62 = sched w59 w54 w48 w46 in
  let c = r4 d e a b c w62 and e = rotl e 30 in
  let w63 = sched w60 w55 w49 w47 in
  let b = r4 c d e a b w63 and d = rotl d 30 in
  let w64 = sched w61 w56 w50 w48 in
  let a = r4 b c d e a w64 and c = rotl c 30 in
  let w65 = sched w62 w57 w51 w49 in
  let e = r4 a b c d e w65 and b = rotl b 30 in
  let w66 = sched w63 w58 w52 w50 in
  let d = r4 e a b c d w66 and a = rotl a 30 in
  let w67 = sched w64 w59 w53 w51 in
  let c = r4 d e a b c w67 and e = rotl e 30 in
  let w68 = sched w65 w60 w54 w52 in
  let b = r4 c d e a b w68 and d = rotl d 30 in
  let w69 = sched w66 w61 w55 w53 in
  let a = r4 b c d e a w69 and c = rotl c 30 in
  let w70 = sched w67 w62 w56 w54 in
  let e = r4 a b c d e w70 and b = rotl b 30 in
  let w71 = sched w68 w63 w57 w55 in
  let d = r4 e a b c d w71 and a = rotl a 30 in
  let w72 = sched w69 w64 w58 w56 in
  let c = r4 d e a b c w72 and e = rotl e 30 in
  let w73 = sched w70 w65 w59 w57 in
  let b = r4 c d e a b w73 and d = rotl d 30 in
  let w74 = sched w71 w66 w60 w58 in
  let a = r4 b c d e a w74 and c = rotl c 30 in
  let w75 = sched w72 w67 w61 w59 in
  let e = r4 a b c d e w75 and b = rotl b 30 in
  let w76 = sched w73 w68 w62 w60 in
  let d = r4 e a b c d w76 and a = rotl a 30 in
  let w77 = sched w74 w69 w63 w61 in
  let c = r4 d e a b c w77 and e = rotl e 30 in
  let w78 = sched w75 w70 w64 w62 in
  let b = r4 c d e a b w78 and d = rotl d 30 in
  let w79 = sched w76 w71 w65 w63 in
  let a = r4 b c d e a w79 and c = rotl c 30 in
  ctx.h0 <- (ctx.h0 + a) land mask;
  ctx.h1 <- (ctx.h1 + b) land mask;
  ctx.h2 <- (ctx.h2 + c) land mask;
  ctx.h3 <- (ctx.h3 + d) land mask;
  ctx.h4 <- (ctx.h4 + e) land mask

let feed ctx ?(off = 0) ?len (s : string) =
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then invalid_arg "Sha1.feed";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Fill a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (block_size - ctx.buf_len) in
    Bytes.blit_string s !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if Int.equal ctx.buf_len block_size then begin
      process ctx (Bytes.unsafe_to_string ctx.buf) 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= block_size do
    process ctx s !pos;
    pos := !pos + block_size;
    remaining := !remaining - block_size
  done;
  if !remaining > 0 then begin
    Bytes.blit_string s !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let feed_bytes ctx ?off ?len (b : bytes) = feed ctx ?off ?len (Bytes.unsafe_to_string b)

let finalize ctx =
  let total_bits = ctx.total * 8 in
  (* Append 0x80, pad with zeros to 56 mod 64, append 64-bit length. *)
  let pad_len =
    let r = (ctx.total + 1) mod block_size in
    if r <= 56 then 56 - r else block_size + 56 - r
  in
  let tail = Bytes.make (1 + pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  for i = 0 to 7 do
    Bytes.set tail (1 + pad_len + i) (Char.chr ((total_bits lsr (8 * (7 - i))) land 0xff))
  done;
  feed_bytes ctx tail;
  let out = Bytes.create digest_size in
  let put i h =
    Bytes.set out (4 * i) (Char.chr ((h lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((h lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((h lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (h land 0xff))
  in
  put 0 ctx.h0;
  put 1 ctx.h1;
  put 2 ctx.h2;
  put 3 ctx.h3;
  put 4 ctx.h4;
  Bytes.unsafe_to_string out

let get ctx = finalize (copy ctx)

let digest s =
  let c = init () in
  feed c s;
  finalize c

let digest_bytes b = digest (Bytes.unsafe_to_string b)

(* Frozen running state: chaining words + length + pending partial block,
   all immutable — safe to share across threads, unlike a [ctx]. *)
type midstate = { ms_h : string; ms_total : int; ms_buf : string }

let save (c : ctx) : midstate =
  let b = Bytes.create digest_size in
  let put i h =
    Bytes.set b (4 * i) (Char.chr ((h lsr 24) land 0xff));
    Bytes.set b ((4 * i) + 1) (Char.chr ((h lsr 16) land 0xff));
    Bytes.set b ((4 * i) + 2) (Char.chr ((h lsr 8) land 0xff));
    Bytes.set b ((4 * i) + 3) (Char.chr (h land 0xff))
  in
  put 0 c.h0;
  put 1 c.h1;
  put 2 c.h2;
  put 3 c.h3;
  put 4 c.h4;
  { ms_h = Bytes.to_string b; ms_total = c.total; ms_buf = Bytes.sub_string c.buf 0 c.buf_len }

let resume (m : midstate) : ctx =
  let word i =
    (Char.code m.ms_h.[4 * i] lsl 24)
    lor (Char.code m.ms_h.[(4 * i) + 1] lsl 16)
    lor (Char.code m.ms_h.[(4 * i) + 2] lsl 8)
    lor Char.code m.ms_h.[(4 * i) + 3]
  in
  let c = init () in
  c.h0 <- word 0;
  c.h1 <- word 1;
  c.h2 <- word 2;
  c.h3 <- word 3;
  c.h4 <- word 4;
  c.total <- m.ms_total;
  Bytes.blit_string m.ms_buf 0 c.buf 0 (String.length m.ms_buf);
  c.buf_len <- String.length m.ms_buf;
  c
