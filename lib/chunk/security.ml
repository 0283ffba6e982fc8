(** Security context: bundles the keys and algorithms the chunk store uses,
    or a no-op version when security is disabled (plain "TDB").

    - every stored payload is encrypted (CBC, fresh IV) with a key derived
      from the platform secret store; the IV of the [n]th seal of a session
      is [AES_ks(n)] under a per-session key [ks] (DESIGN.md, "IVs");
    - payloads are labelled by a one-way hash of the stored bytes
      (encrypt-then-hash), forming the Merkle tree when combined with the
      location map;
    - the anchor and the commit chain are authenticated with HMAC-SHA256
      under separate derived keys. *)

open Tdb_crypto

type t = {
  enabled : bool;
  cipher : Cbc.cipher option;
  hash : (module Hash.S);
  hash_len : int;
  mac_key : string; (* anchor + commit chain MAC *)
  mac_pre : Hmac.key; (* same key, ipad/opad precompressed (hot path) *)
  mutable session : session option; (* IV source; None until {!start_session} *)
}

and session = { iv_key : Aes.key; seals : int Atomic.t (* seals drawn this session *) }

let create (config : Config.t) (secret : Tdb_platform.Secret_store.t) : t =
  let module H = (val match config.Config.hash with Config.Sha1 -> (module Sha1 : Hash.S) | Config.Sha256 -> (module Sha256)) in
  let cipher =
    if not config.Config.security then None
    else
      Some
        (match config.Config.cipher with
        | Config.Aes128 ->
            Cbc.make (module Aes) ~secret:(Tdb_platform.Secret_store.derive_len secret "chunk-cipher" Aes.key_size)
        | Config.Triple_aes ->
            Cbc.make
              (module Triple.Aes3)
              ~secret:(Tdb_platform.Secret_store.derive_len secret "chunk-cipher" Triple.Aes3.key_size)
        | Config.Triple_xtea ->
            Cbc.make
              (module Triple.Xtea3)
              ~secret:(Tdb_platform.Secret_store.derive_len secret "chunk-cipher" Triple.Xtea3.key_size))
  in
  let mac_key = Tdb_platform.Secret_store.derive secret "anchor-mac" in
  {
    enabled = config.Config.security;
    cipher;
    hash = (module H);
    hash_len = (if config.Config.security then H.digest_size else 0);
    mac_key;
    mac_pre = Hmac.precompute (module Sha256) ~key:mac_key;
    session = None;
  }

(** Begin an IV session: one HMAC and one AES key schedule. The session
    key binds the one-way-counter value at open and the anchor epoch the
    open's own closing checkpoint writes, so no two sessions recovery can
    reach share a key (DESIGN.md, "IVs"). The label's first field is a
    store index that is always 0, kept so sealed bytes stay as they were.
    No-op when security is off. *)
let start_session (t : t) (secret : Tdb_platform.Secret_store.t) ~(counter : int64) ~(epoch : int) : unit =
  if Option.is_some t.cipher then
    t.session <-
      Some
        {
          iv_key =
            Aes.of_secret
              (Tdb_platform.Secret_store.derive_len secret
                 (Printf.sprintf "iv-session/0/%Ld/%d" counter epoch)
                 Aes.key_size);
          seals = Atomic.make 0;
        }

(** Draw the IV for one {!seal}: [AES_ks(n)] for the session's [n]th
    seal, truncated to the cipher's block size. [None] when security is
    off. *)
let draw_iv (t : t) : string option =
  match (t.cipher, t.session) with
  | None, _ -> None
  | Some _, None -> invalid_arg "Security.draw_iv: no session started"
  | Some c, Some s ->
      let b = Bytes.make Aes.block_size '\000' in
      Bytes.set_int64_be b 8 (Int64.of_int (Atomic.fetch_and_add s.seals 1));
      Aes.encrypt_block s.iv_key ~src:b ~src_off:0 ~dst:b ~dst_off:0;
      Some (Bytes.sub_string b 0 (Cbc.block_size c))

(** Encrypt a payload for storage (identity when security is off). *)
let seal (t : t) (plain : string) : string =
  match (t.cipher, draw_iv t) with
  | None, _ -> plain
  | Some c, Some iv -> Cbc.encrypt c ~iv plain
  | Some _, None -> invalid_arg "Security.seal: missing IV"

(** Decrypt a stored payload.
    @raise Types.Tamper_detected when padding is malformed. *)
let unseal (t : t) (stored : string) : string =
  match t.cipher with
  | None -> stored
  | Some c -> ( try Cbc.decrypt c stored with Cbc.Bad_padding -> Types.tamper "bad padding in stored chunk" )

(** Digest of stored bytes — the Merkle label. Empty when security is off
    (validation is skipped entirely, as in the paper's plain TDB). *)
let label (t : t) (stored : string) : string =
  if not t.enabled then ""
  else
    let module H = (val t.hash) in
    H.digest stored

let check_label (t : t) ~(expected : string) (stored : string) ~(what : unit -> string) : unit =
  if t.enabled && not (Ct.equal_string expected (label t stored)) then
    Types.tamper "hash mismatch on %s" (what ())

(** MAC used for the anchor and commit chain. With security off this
    degrades to a plain digest: it still detects *accidental* corruption
    (torn anchor writes) but offers no protection against forgery — exactly
    the paper's TDB-without-security mode. *)
let mac (t : t) (data : string) : string =
  if t.enabled then Hmac.mac t.mac_pre data else Sha256.digest data

let mac_len = Sha256.digest_size

let check_mac (t : t) ~(expected : string) (data : string) ~(what : string) : bool =
  ignore what;
  Ct.equal_string expected (mac t data)

(** Storage overhead of sealing an [n]-byte payload (IV + padding). *)
let seal_overhead (t : t) (n : int) : int =
  match t.cipher with None -> 0 | Some c -> Cbc.block_size c + Cbc.padded_len c n - n
