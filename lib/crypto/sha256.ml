(** SHA-256 (FIPS 180-4), implemented from scratch.

    The round constants and initial hash values are *derived* (fractional
    bits of cube/square roots of the first primes) rather than hard-coded,
    which makes the implementation verifiable without a table to mistype;
    correctness is pinned by the FIPS test vectors in the test suite.

    TDB uses SHA-256 for HMAC authentication of the anchor and the commit
    chain; the Merkle tree itself uses SHA-1 as in the paper (configurable). *)

let digest_size = 32
let block_size = 64
let mask = 0xFFFFFFFF

let first_primes n =
  let rec is_prime k d = d * d > k || (k mod d <> 0 && is_prime k (d + 1)) in
  let rec go acc k = if List.length acc = n then List.rev acc else go (if is_prime k 2 then k :: acc else acc) (k + 1) in
  go [] 2

let frac_bits32 (f : float) : int =
  (* first 32 fractional bits of f *)
  let fr = f -. Float.of_int (int_of_float f) in
  int_of_float (fr *. 4294967296.0) land mask

let k : int array =
  Array.of_list (List.map (fun p -> frac_bits32 (Float.cbrt (float_of_int p))) (first_primes 64))

let h_init : int array =
  Array.of_list (List.map (fun p -> frac_bits32 (sqrt (float_of_int p))) (first_primes 8))

type ctx = {
  h : int array;
  mutable total : int;
  buf : Bytes.t;
  mutable buf_len : int;
  w : int array;
}

let init () = { h = Array.copy h_init; total = 0; buf = Bytes.create block_size; buf_len = 0; w = Array.make 64 0 }
let copy c = { c with h = Array.copy c.h; buf = Bytes.copy c.buf; w = Array.copy c.w }
let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* One bounds check per block licenses the unsafe loads below; [w] is
   always 64 wide and [k] 64 wide, every index bounded by the loop. *)
let process ctx (s : string) (off : int) =
  if off < 0 || off + block_size > String.length s then invalid_arg "Sha256.process";
  let w = ctx.w in
  for t = 0 to 15 do
    let i = off + (4 * t) in
    Array.unsafe_set w t
      ((Char.code (String.unsafe_get s i) lsl 24)
      lor (Char.code (String.unsafe_get s (i + 1)) lsl 16)
      lor (Char.code (String.unsafe_get s (i + 2)) lsl 8)
      lor Char.code (String.unsafe_get s (i + 3)))
  done;
  for t = 16 to 63 do
    let w15 = Array.unsafe_get w (t - 15) and w2 = Array.unsafe_get w (t - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
    let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w t ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g land mask) in
    let t1 = (!hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t) land mask in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed ctx ?(off = 0) ?len (s : string) =
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then invalid_arg "Sha256.feed";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
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
  Array.iteri
    (fun i h ->
      Bytes.set out (4 * i) (Char.chr ((h lsr 24) land 0xff));
      Bytes.set out ((4 * i) + 1) (Char.chr ((h lsr 16) land 0xff));
      Bytes.set out ((4 * i) + 2) (Char.chr ((h lsr 8) land 0xff));
      Bytes.set out ((4 * i) + 3) (Char.chr (h land 0xff)))
    ctx.h;
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
  for i = 0 to 7 do
    let h = c.h.(i) in
    Bytes.set b (4 * i) (Char.chr ((h lsr 24) land 0xff));
    Bytes.set b ((4 * i) + 1) (Char.chr ((h lsr 16) land 0xff));
    Bytes.set b ((4 * i) + 2) (Char.chr ((h lsr 8) land 0xff));
    Bytes.set b ((4 * i) + 3) (Char.chr (h land 0xff))
  done;
  { ms_h = Bytes.to_string b; ms_total = c.total; ms_buf = Bytes.sub_string c.buf 0 c.buf_len }

let resume (m : midstate) : ctx =
  let c = init () in
  for i = 0 to 7 do
    c.h.(i) <-
      (Char.code m.ms_h.[4 * i] lsl 24)
      lor (Char.code m.ms_h.[(4 * i) + 1] lsl 16)
      lor (Char.code m.ms_h.[(4 * i) + 2] lsl 8)
      lor Char.code m.ms_h.[(4 * i) + 3]
  done;
  c.total <- m.ms_total;
  Bytes.blit_string m.ms_buf 0 c.buf 0 (String.length m.ms_buf);
  c.buf_len <- String.length m.ms_buf;
  c
