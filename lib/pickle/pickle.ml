(** Binary pickling combinators.

    TDB stores C++ objects by calling application-supplied pickle methods
    (paper Section 4.1); this module is the OCaml equivalent: a compact,
    architecture-independent binary format with explicit writer/reader
    combinators. Integers use LEB128-style varints so small DRM records
    (meters, balances) stay small on disk, as the paper's variable-sized
    chunks intend. *)

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type writer = { buf : Buffer.t }

let writer () = { buf = Buffer.create 64 }
let contents w = Buffer.contents w.buf
let writer_length w = Buffer.length w.buf

let byte w (v : int) = Buffer.add_char w.buf (Char.chr (v land 0xff))
let bool w (v : bool) = byte w (if v then 1 else 0)
let char w (v : char) = Buffer.add_char w.buf v

(* Zig-zag varint: works for negative ints, compact for small magnitudes. *)
let int w (v : int) =
  let u = (v lsl 1) lxor (v asr 62) in
  let rec go u =
    if u land lnot 0x7f = 0 then byte w u
    else begin
      byte w (u land 0x7f lor 0x80);
      go (u lsr 7)
    end
  in
  go u

let uint w (v : int) =
  if v < 0 then error "Pickle.uint: negative";
  let rec go u = if u land lnot 0x7f = 0 then byte w u else (byte w (u land 0x7f lor 0x80); go (u lsr 7)) in
  go v

let int64 w (v : int64) =
  (* fixed 8-byte big-endian *)
  for i = 7 downto 0 do
    byte w (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
  done

let int32_fixed w (v : int) =
  for i = 3 downto 0 do
    byte w ((v lsr (8 * i)) land 0xff)
  done

let float w (v : float) = int64 w (Int64.bits_of_float v)

let string w (s : string) =
  uint w (String.length s);
  Buffer.add_string w.buf s

let bytes w (b : bytes) = string w (Bytes.unsafe_to_string b)
let option w f = function None -> bool w false | Some v -> bool w true; f w v

let list w f l =
  uint w (List.length l);
  List.iter (f w) l

let array w f a =
  uint w (Array.length a);
  Array.iter (fun x -> f w x) a

let pair w fa fb (a, b) = fa w a; fb w b
let triple w fa fb fc (a, b, c) = fa w a; fb w b; fc w c

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type reader = { src : string; mutable pos : int; limit : int }

let reader ?(off = 0) ?len (s : string) =
  let limit = match len with Some l -> off + l | None -> String.length s in
  if off < 0 || limit > String.length s then error "Pickle.reader: bad bounds";
  { src = s; pos = off; limit }

let remaining r = r.limit - r.pos
let at_end r = r.pos >= r.limit

let read_byte r =
  if r.pos >= r.limit then error "Pickle: truncated input (byte)";
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let read_bool r =
  match read_byte r with 0 -> false | 1 -> true | n -> error "Pickle: invalid bool %d" n

(* The raw 63-bit varint: a 9-byte encoding can set the sign bit, which
   zig-zag [int] relies on for large magnitudes. *)
let read_varint r =
  let rec go shift acc =
    if shift > 62 then error "Pickle: varint too long";
    let b = read_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

let read_uint r =
  let u = read_varint r in
  if u < 0 then error "Pickle: unsigned varint out of range";
  u

let read_int r =
  let u = read_varint r in
  (u lsr 1) lxor (-(u land 1))

let read_int64 r =
  let v = ref 0L in
  for _ = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read_byte r))
  done;
  !v

let read_int32_fixed r =
  let v = ref 0 in
  for _ = 0 to 3 do
    v := (!v lsl 8) lor read_byte r
  done;
  !v

let read_float r = Int64.float_of_bits (read_int64 r)

let read_string r =
  let n = read_uint r in
  if n > remaining r then error "Pickle: truncated input (string of %d, %d left)" n (remaining r);
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let read_option r f = if read_bool r then Some (f r) else None

let read_list r f =
  let n = read_uint r in
  List.init n (fun _ -> f r)

let read_pair r fa fb =
  let a = fa r in
  let b = fb r in
  (a, b)

let read_triple r fa fb fc =
  let a = fa r in
  let b = fb r in
  let c = fc r in
  (a, b, c)

(** Fail unless the reader consumed everything — catches class mismatches
    early, part of TDB's "catch common programming mistakes" stance. *)
let expect_end r = if not (at_end r) then error "Pickle: %d trailing bytes" (remaining r)
