(* IV probe for the chunk store's sealed records. It interposes on an
   untrusted store and keeps every sealed record the store is asked to
   write, so a test can check that no IV was ever used for two different
   records. The same record written twice, as when the cleaner relocates
   it, is one record. *)

open Tdb_platform
open Tdb_chunk

(* Config.default seals under Triple-AES, whose CBC IV is one 16-byte
   block at the front of the sealed payload. *)
let iv_len = 16

type t = { payloads : (string, unit) Hashtbl.t (* distinct sealed records *) }

let create () = { payloads = Hashtbl.create 64 }

(* A log record reaches the store as a header fragment (magic, kind,
   4-byte length) followed by its payload fragment. Chunk, map-node and
   commit payloads are sealed; segment-chain markers are not. *)
let sealed_payload_at data ~off =
  if Int.equal (String.length data) Log.header_size && Char.equal data.[0] Log.magic_byte then
    match Types.kind_of_byte (Char.code data.[1]) with
    | Types.Data_chunk | Types.Map_node | Types.Commit -> Some (off + Log.header_size, Int32.to_int (String.get_int32_be data 2))
    | Types.Next_segment -> None
    | exception Invalid_argument _ -> None
  else None

let watch (p : t) (store : Untrusted_store.t) : Untrusted_store.t =
  let expect = ref None in
  Untrusted_store.interpose store ~before:(function
    | Untrusted_store.Op_write { off; data } ->
        (match !expect with
        | Some (at, len) when Int.equal at off && Int.equal len (String.length data) ->
            Hashtbl.replace p.payloads data ()
        | _ -> ());
        expect := sealed_payload_at data ~off
    | Untrusted_store.Op_set_size _ | Untrusted_store.Op_sync -> ())

let records (p : t) = Hashtbl.length p.payloads

(* Distinct records minus distinct IVs: how many records reused an IV. *)
let repeats (p : t) =
  let ivs = Hashtbl.create 64 in
  Hashtbl.iter (fun data () -> Hashtbl.replace ivs (String.sub data 0 iv_len) ()) p.payloads;
  records p - Hashtbl.length ivs
