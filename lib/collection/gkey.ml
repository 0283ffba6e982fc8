(** Index key types (the paper's GenericKey hierarchy).

    A key type bundles ordering and a *canonical* pickled form: equal keys
    must pickle to equal bytes (hash indexes bucket by the bytes; B-trees
    order by [compare] on the unpickled values). All standard TDB key types
    below are canonical. *)

module type KEY = sig
  type k

  val name : string
  val compare : k -> k -> int
  val pickle : Tdb_pickle.Pickle.writer -> k -> unit
  val unpickle : Tdb_pickle.Pickle.reader -> k
end

(* The layout of a standard key's canonical bytes: what the in-place
   comparator walks. *)
type shape = Int | Str | Flt | Pair of shape * shape

type 'k t = { key : (module KEY with type k = 'k); shape : shape option (* [None]: a custom key *) }

let to_bytes (type k) ({ key = (module K); _ } : k t) (v : k) : string =
  let w = Tdb_pickle.Pickle.writer () in
  K.pickle w v;
  Tdb_pickle.Pickle.contents w

let of_bytes (type k) ({ key = (module K); _ } : k t) (s : string) : k =
  let r = Tdb_pickle.Pickle.reader s in
  let v = K.unpickle r in
  Tdb_pickle.Pickle.expect_end r;
  v

(** Decode both keys, then order the values: the reference the in-place
    comparators agree with, and the comparator of every custom key. *)
let decode_with (type k) ((module K) : (module KEY with type k = k)) : string -> string -> int =
 fun a b ->
  let ra = Tdb_pickle.Pickle.reader a and rb = Tdb_pickle.Pickle.reader b in
  K.compare (K.unpickle ra) (K.unpickle rb)

let decode_compare (t : 'k t) : string -> string -> int = decode_with t.key
let custom (key : (module KEY with type k = 'k)) : 'k t = { key; shape = None }

(* --- in-place reads of canonical bytes ---

   Each mirrors a [Pickle] reader at an offset into the encoding, with the
   same checks: what [Pickle] refuses raises [Pickle.Error] here too, and
   bytes after the key are ignored, as [unpickle] ignores them. Nothing
   here allocates unless it raises. *)

let malformed what = raise (Tdb_pickle.Pickle.Error ("Gkey: malformed key (" ^ what ^ ")"))

(* [Pickle.read_varint]: the raw 63-bit value at [i]. *)
let rec varint s i shift acc =
  if shift > 62 then malformed "varint too long";
  if i >= String.length s then malformed "truncated varint";
  let b = Char.code (String.get s i) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 <> 0 then varint s (i + 1) (shift + 7) acc else acc

(* Offset just past the varint at [i]. *)
let rec varint_end s i shift =
  if shift > 62 then malformed "varint too long";
  if i >= String.length s then malformed "truncated varint";
  if Char.code (String.get s i) land 0x80 <> 0 then varint_end s (i + 1) (shift + 7) else i + 1

let int_at s i =
  let u = varint s i 0 0 in
  (u lsr 1) lxor -(u land 1)

(* [Pickle.read_string]'s length prefix at [i], checked against the bytes
   left after it; the bytes start at [varint_end s i 0]. *)
let str_len s i start =
  let n = varint s i 0 0 in
  if n < 0 then malformed "string length out of range";
  if n > String.length s - start then malformed "truncated string";
  n

(* Inlined, so the float is never boxed: a call would allocate it. *)
let[@inline] float_at s i =
  if i > String.length s - 8 then malformed "truncated float";
  Int64.float_of_bits (String.get_int64_be s i)

(* [String.compare] on the [n]-byte prefixes at [ia] and [ib]. *)
let rec bytes_cmp a ia b ib n =
  if n = 0 then 0
  else
    let c = Int.compare (Char.code (String.get a ia)) (Char.code (String.get b ib)) in
    if c <> 0 then c else bytes_cmp a (ia + 1) b (ib + 1) (n - 1)

let str_cmp a ia b ib =
  let sa = varint_end a ia 0 and sb = varint_end b ib 0 in
  let na = str_len a ia sa and nb = str_len b ib sb in
  match bytes_cmp a sa b sb (Int.min na nb) with 0 -> Int.compare na nb | c -> c

(* Offset just past the key of shape [sh] at [i], checking it whole. *)
let rec end_at sh s i =
  match sh with
  | Int -> varint_end s i 0
  | Str ->
      let start = varint_end s i 0 in
      start + str_len s i start
  | Flt ->
      if i > String.length s - 8 then malformed "truncated float";
      i + 8
  | Pair (x, y) -> end_at y s (end_at x s i)

(* A pair orders by its first component, then its second; both components
   of both keys are checked, as decoding them would. *)
let rec cmp_at sh a ia b ib =
  match sh with
  | Int -> Int.compare (int_at a ia) (int_at b ib)
  | Str -> str_cmp a ia b ib
  | Flt -> Float.compare (float_at a ia) (float_at b ib)
  | Pair (x, y) -> (
      let c = cmp_at x a ia b ib in
      let ja = end_at x a ia and jb = end_at x b ib in
      match c with
      | 0 -> cmp_at y a ja b jb
      | c ->
          ignore (end_at y a ja);
          ignore (end_at y b jb);
          c)

(** Byte-level comparator — what the index implementations use, so their
    node classes stay monomorphic (the paper's "all templatization is
    limited to a single, relatively small class, the Indexer"). *)
let bytes_compare (t : 'k t) : string -> string -> int =
  match t.shape with Some sh -> fun a b -> cmp_at sh a 0 b 0 | None -> decode_compare t

(* --- standard key types --- *)

let standard (key : (module KEY with type k = 'k)) (sh : shape) : 'k t = { key; shape = Some sh }

let int : int t =
  standard
    (module struct
      type k = int

      let name = "int"
      let compare = Int.compare
      let pickle = Tdb_pickle.Pickle.int
      let unpickle = Tdb_pickle.Pickle.read_int
    end)
    Int

let string : string t =
  standard
    (module struct
      type k = string

      let name = "string"
      let compare = String.compare
      let pickle = Tdb_pickle.Pickle.string
      let unpickle = Tdb_pickle.Pickle.read_string
    end)
    Str

let float : float t =
  standard
    (module struct
      type k = float

      let name = "float"
      let compare = Float.compare
      let pickle = Tdb_pickle.Pickle.float
      let unpickle = Tdb_pickle.Pickle.read_float
    end)
    Flt

(** Composite key: lexicographic pair, e.g. (usage count, good id). *)
let pair (type a b) (ta : a t) (tb : b t) : (a * b) t =
  let (module A) = ta.key and (module B) = tb.key in
  let key : (module KEY with type k = a * b) =
    (module struct
      type k = a * b

      let name = Printf.sprintf "pair(%s,%s)" A.name B.name

      let compare (a1, b1) (a2, b2) =
        match A.compare a1 a2 with 0 -> B.compare b1 b2 | c -> c

      let pickle w (a, b) =
        A.pickle w a;
        B.pickle w b

      let unpickle r =
        let a = A.unpickle r in
        let b = B.unpickle r in
        (a, b)
    end)
  in
  { key; shape = (match (ta.shape, tb.shape) with Some x, Some y -> Some (Pair (x, y)) | _ -> None) }

(** Deterministic, persistence-stable hash of a key's canonical bytes
    (FNV-1a style, with the offset basis truncated to OCaml's 63-bit int):
    OCaml's [Hashtbl.hash] is not stable across versions, so the dynamic
    hash index uses this instead. *)
let hash_bytes (s : string) : int =
  let h = ref 0x1bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land max_int
