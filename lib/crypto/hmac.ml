(** HMAC (RFC 2104) over any hash from this library.

    TDB signs the anchor and the commit chain with [hmac_sha256] keyed by a
    key derived from the platform secret store. Those MACs recompute under
    the {e same} key on every commit, so {!precompute} exposes the classic
    HMAC optimization: hash the ipad/opad key blocks once and clone the
    resulting contexts per message, saving two block compressions (and the
    pad allocations) per MAC — half the work for short inputs like commit
    records. *)

(* Both key pads, with an over-long key digested first per the RFC. *)
let pads (module H : Hash.S) ~(key : string) : string * string =
  let key = if String.length key > H.block_size then H.digest key else key in
  let pad c =
    String.init H.block_size (fun i ->
        let k = if i < String.length key then Char.code key.[i] else 0 in
        Char.chr (k lxor c))
  in
  (pad 0x36, pad 0x5c)

(** A prepared key: frozen {e midstates} of the inner context primed with
    [key xor ipad] and the outer context primed with [key xor opad].
    Midstates are immutable, so one prepared key can serve any number of
    threads concurrently; each {!mac} resumes them into fresh private
    contexts. (Live mutable contexts shared by the key would be corrupted
    the moment a thread was preempted mid-MAC while another used it.) *)
type key = Key : (module Hash.S with type midstate = 'm) * 'm * 'm -> key

let precompute (module H : Hash.S) ~(key : string) : key =
  let ipad, opad = pads (module H) ~key in
  let inner = H.init () in
  H.feed inner ipad;
  let outer = H.init () in
  H.feed outer opad;
  Key ((module H), H.save inner, H.save outer)

let mac (Key ((module H), inner0, outer0) : key) (data : string) : string =
  let inner = H.resume inner0 in
  H.feed inner data;
  let outer = H.resume outer0 in
  H.feed outer (H.get inner);
  H.get outer

let compute (module H : Hash.S) ~(key : string) (data : string) : string =
  let ipad, opad = pads (module H) ~key in
  let c = H.init () in
  H.feed c ipad;
  H.feed c data;
  let inner = H.get c in
  let o = H.init () in
  H.feed o opad;
  H.feed o inner;
  H.get o

let sha1 ~key data = compute (module Sha1) ~key data
let sha256 ~key data = compute (module Sha256) ~key data

(** Incremental HMAC, used to MAC streams (e.g. backups) without
    materializing them. *)
type ctx = Ctx : (module Hash.S with type ctx = 'c) * 'c * string -> ctx

let init (module H : Hash.S) ~(key : string) : ctx =
  let ipad, opad = pads (module H) ~key in
  let inner = H.init () in
  H.feed inner ipad;
  Ctx ((module H), inner, opad)

let feed (Ctx ((module H), inner, _) : ctx) (data : string) : unit = H.feed inner data

let get (Ctx ((module H), inner, opad) : ctx) : string =
  let inner_digest = H.get inner in
  let o = H.init () in
  H.feed o opad;
  H.feed o inner_digest;
  H.get o
