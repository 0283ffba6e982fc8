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
  w : int array; (* message schedule scratch *)
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
    w = Array.make 80 0;
  }

let copy c = { c with buf = Bytes.copy c.buf; w = Array.copy c.w }
let mask = 0xFFFFFFFF
let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

(* Process one 64-byte block starting at [off] in [b]. The single bounds
   check up front licenses the unsafe loads in the loops below — [w] is
   always 80 wide, and every index is a compile-time-bounded function of
   the loop counter. *)
let process ctx (b : string) (off : int) =
  if off < 0 || off + block_size > String.length b then invalid_arg "Sha1.process";
  let w = ctx.w in
  for t = 0 to 15 do
    let i = off + (4 * t) in
    Array.unsafe_set w t
      ((Char.code (String.unsafe_get b i) lsl 24)
      lor (Char.code (String.unsafe_get b (i + 1)) lsl 16)
      lor (Char.code (String.unsafe_get b (i + 2)) lsl 8)
      lor Char.code (String.unsafe_get b (i + 3)))
  done;
  for t = 16 to 79 do
    Array.unsafe_set w t
      (rotl
         (Array.unsafe_get w (t - 3)
         lxor Array.unsafe_get w (t - 8)
         lxor Array.unsafe_get w (t - 14)
         lxor Array.unsafe_get w (t - 16))
         1)
  done;
  let a = ref ctx.h0
  and b' = ref ctx.h1
  and c = ref ctx.h2
  and d = ref ctx.h3
  and e = ref ctx.h4 in
  for t = 0 to 79 do
    let f, k =
      if t < 20 then (!b' land !c lor (lnot !b' land !d) land mask, 0x5A827999)
      else if t < 40 then (!b' lxor !c lxor !d, 0x6ED9EBA1)
      else if t < 60 then (!b' land !c lor (!b' land !d) lor (!c land !d), 0x8F1BBCDC)
      else (!b' lxor !c lxor !d, 0xCA62C1D6)
    in
    let tmp = (rotl !a 5 + (f land mask) + !e + k + Array.unsafe_get w t) land mask in
    e := !d;
    d := !c;
    c := rotl !b' 30;
    b' := !a;
    a := tmp
  done;
  ctx.h0 <- (ctx.h0 + !a) land mask;
  ctx.h1 <- (ctx.h1 + !b') land mask;
  ctx.h2 <- (ctx.h2 + !c) land mask;
  ctx.h3 <- (ctx.h3 + !d) land mask;
  ctx.h4 <- (ctx.h4 + !e) land mask

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
