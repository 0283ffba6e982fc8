(** The platform secret store (paper Figure 1): a small trusted-read store
    holding the secret key — ROM/battery-backed SRAM on real devices.

    Only "authorized programs" (anything holding a [t]) can read it; the
    attacker model gives no access. Keys for specific purposes are derived
    from the master secret with HMAC-SHA256, so compromising one derived key
    does not reveal the others. *)

type t = { master : string }

let key_size = 32

(** In-memory secret store seeded deterministically (tests, benchmarks). *)
let of_seed (seed : string) : t = { master = Tdb_crypto.Sha256.digest ("tdb-master:" ^ seed) }

exception Bad_key_file of string

(** Load a key file — the "ROM image". Never writes. *)
let of_file (path : string) : t =
  match In_channel.with_open_bin path In_channel.input_all with
  | s when Int.equal (String.length s) key_size -> { master = s }
  | s -> raise (Bad_key_file (Printf.sprintf "%s holds %d bytes, not a %d-byte key" path (String.length s) key_size))
  | exception Sys_error msg -> raise (Bad_key_file msg)

(** Write [key] (default: a fresh one) to a new key file. *)
let create_file ?key (path : string) : t =
  let t =
    match key with
    | Some t -> t
    | None ->
        { master = Tdb_crypto.Sha256.digest (Printf.sprintf "init:%f:%d:%s" (Unix.gettimeofday ()) (Unix.getpid ()) path) }
  in
  Out_channel.with_open_gen [ Open_wronly; Open_creat; Open_excl; Open_binary ] 0o600 path (fun oc ->
      Out_channel.output_string oc t.master);
  t

(** [derive t purpose] is a 32-byte key bound to [purpose]
    (e.g. ["chunk-encryption"], ["anchor-mac"], ["backup-mac"]). *)
let derive (t : t) (purpose : string) : string = Tdb_crypto.Hmac.sha256 ~key:t.master purpose

(** Derive a key of exactly [len] bytes (block ciphers want 16/48). *)
let derive_len (t : t) (purpose : string) (len : int) : string =
  let buf = Buffer.create len in
  let i = ref 0 in
  while Buffer.length buf < len do
    Buffer.add_string buf (derive t (Printf.sprintf "%s#%d" purpose !i));
    incr i
  done;
  Buffer.sub buf 0 len

(** Zeroization on tamper response (battery-backed SRAM behaviour). After
    this, all derived keys are unrecoverable. *)
let zeroize (t : t) : t = ignore t; { master = String.make key_size '\000' }
