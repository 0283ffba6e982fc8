(** Wire protocol for the TDB network service.

    Framing is a 4-byte big-endian length prefix followed by a payload
    encoded with {!Tdb_pickle.Pickle} — the same combinators the stores
    use, never [Marshal] (the wire crosses a trust boundary; lint rule R3
    enforces this mechanically). A connection opens with a [Hello]
    carrying the magic and protocol version; the server answers nothing
    else until one succeeds and ends the session after a refused one.

    Every data request names a collection: objects change only through a
    collection and its indexes, never as raw oids or roots. Object
    payloads travel in {!Tdb_objstore.Obj_class} packed form (class name +
    version embedded), so a class mismatch is detected, not silently
    mis-decoded. Index keys travel as {!Tdb_collection.Gkey} canonical
    bytes. Opcodes of removed kinds (4–9, 17) stay unassigned, so an older
    client's frame of that kind is an unknown opcode. *)

exception Proto_error of string
(** Malformed frame, unknown opcode, version mismatch, or oversized
    payload. *)

let version = 9
let magic = "TDB\001"

let default_max_frame = 4 * 1024 * 1024
(** Frames larger than this are refused outright — a length prefix is
    attacker-supplied input and must not size an allocation unchecked. *)

let list_page = 16384

module P = Tdb_pickle.Pickle

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

type request =
  | Hello of { r_magic : string; r_version : int }
  | Begin
  | Commit of { durable : bool }
  | Abort
  | Coll_insert of { coll : string; data : string }
  | Coll_find of { coll : string; index : string; key : string }
  | Coll_scan of { coll : string; index : string; min : string option; max : string option; limit : int }
  | Coll_mutate of { coll : string; index : string; key : string; mutation : string; arg : string }
  | Coll_size of { coll : string }
  | Metrics  (** the server's and the store's named metrics *)
  | Bye
  | List_backups of { after : int }
      (** one page of the archive index: the (backup id, archive name)
          pairs with id above [after], in id order, at most {!list_page}
          of them *)
  | Fetch_backup of { name : string }
      (** one archive stream by name — an opaque sealed backup frame the
          client verifies and unseals locally under the device secret *)

type response =
  | Hello_ok of { a_version : int }
  | Ok_unit
  | Ok_oid of int
  | Ok_data of string
  | Ok_found of (int * string) option
  | Ok_list of (int * string) list
  | Ok_int of int
  | Ok_metrics of Tdb_chunk.Metrics.t
  | Error_ of { tag : string; msg : string }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let encode_request (req : request) : string =
  let w = P.writer () in
  (match req with
  | Hello { r_magic; r_version } ->
      P.byte w 0;
      P.string w r_magic;
      P.uint w r_version
  | Begin -> P.byte w 1
  | Commit { durable } ->
      P.byte w 2;
      P.bool w durable
  | Abort -> P.byte w 3
  | Coll_insert { coll; data } ->
      P.byte w 10;
      P.string w coll;
      P.string w data
  | Coll_find { coll; index; key } ->
      P.byte w 11;
      P.string w coll;
      P.string w index;
      P.string w key
  | Coll_scan { coll; index; min; max; limit } ->
      P.byte w 12;
      P.string w coll;
      P.string w index;
      P.option w P.string min;
      P.option w P.string max;
      P.uint w limit
  | Coll_mutate { coll; index; key; mutation; arg } ->
      P.byte w 13;
      P.string w coll;
      P.string w index;
      P.string w key;
      P.string w mutation;
      P.string w arg
  | Coll_size { coll } ->
      P.byte w 14;
      P.string w coll
  | Metrics -> P.byte w 15
  | Bye -> P.byte w 16
  | List_backups { after } ->
      P.byte w 18;
      P.uint w after
  | Fetch_backup { name } ->
      P.byte w 19;
      P.string w name);
  P.contents w

let decode_request (payload : string) : request =
  let r = P.reader payload in
  let req =
    match P.read_byte r with
    | 0 ->
        let r_magic = P.read_string r in
        let r_version = P.read_uint r in
        Hello { r_magic; r_version }
    | 1 -> Begin
    | 2 -> Commit { durable = P.read_bool r }
    | 3 -> Abort
    | 10 ->
        let coll = P.read_string r in
        let data = P.read_string r in
        Coll_insert { coll; data }
    | 11 ->
        let coll = P.read_string r in
        let index = P.read_string r in
        let key = P.read_string r in
        Coll_find { coll; index; key }
    | 12 ->
        let coll = P.read_string r in
        let index = P.read_string r in
        let min = P.read_option r P.read_string in
        let max = P.read_option r P.read_string in
        let limit = P.read_uint r in
        Coll_scan { coll; index; min; max; limit }
    | 13 ->
        let coll = P.read_string r in
        let index = P.read_string r in
        let key = P.read_string r in
        let mutation = P.read_string r in
        let arg = P.read_string r in
        Coll_mutate { coll; index; key; mutation; arg }
    | 14 -> Coll_size { coll = P.read_string r }
    | 15 -> Metrics
    | 16 -> Bye
    | 18 -> List_backups { after = P.read_uint r }
    | 19 -> Fetch_backup { name = P.read_string r }
    | op -> raise (Proto_error (Printf.sprintf "unknown request opcode %d" op))
  in
  P.expect_end r;
  req

(* A metric value travels as a tag byte and its payload, so a new metric
   name needs no new opcode or version. *)
let write_value w (v : Tdb_chunk.Metrics.value) =
  match v with
  | Int n ->
      P.byte w 0;
      P.int w n
  | Float f ->
      P.byte w 1;
      P.float w f
  | Text s ->
      P.byte w 2;
      P.string w s

let read_value r : Tdb_chunk.Metrics.value =
  match P.read_byte r with
  | 0 -> Int (P.read_int r)
  | 1 -> Float (P.read_float r)
  | 2 -> Text (P.read_string r)
  | tag -> raise (Proto_error (Printf.sprintf "unknown metric value tag %d" tag))

let encode_response (resp : response) : string =
  let w = P.writer () in
  (match resp with
  | Hello_ok { a_version } ->
      P.byte w 0;
      P.uint w a_version
  | Ok_unit -> P.byte w 1
  | Ok_oid oid ->
      P.byte w 2;
      P.int w oid
  | Ok_data data ->
      P.byte w 3;
      P.string w data
  | Ok_found found ->
      P.byte w 4;
      P.option w (fun w p -> P.pair w P.int P.string p) found
  | Ok_list l ->
      P.byte w 5;
      P.list w (fun w p -> P.pair w P.int P.string p) l
  | Ok_int n ->
      P.byte w 7;
      P.int w n
  | Ok_metrics m ->
      P.byte w 8;
      P.list w (fun w p -> P.pair w P.string write_value p) m
  | Error_ { tag; msg } ->
      P.byte w 9;
      P.string w tag;
      P.string w msg);
  P.contents w

let decode_response (payload : string) : response =
  let r = P.reader payload in
  let resp =
    match P.read_byte r with
    | 0 -> Hello_ok { a_version = P.read_uint r }
    | 1 -> Ok_unit
    | 2 -> Ok_oid (P.read_int r)
    | 3 -> Ok_data (P.read_string r)
    | 4 -> Ok_found (P.read_option r (fun r -> P.read_pair r P.read_int P.read_string))
    | 5 -> Ok_list (P.read_list r (fun r -> P.read_pair r P.read_int P.read_string))
    | 7 -> Ok_int (P.read_int r)
    | 8 -> Ok_metrics (P.read_list r (fun r -> P.read_pair r P.read_string read_value))
    | 9 ->
        let tag = P.read_string r in
        let msg = P.read_string r in
        Error_ { tag; msg }
    | op -> raise (Proto_error (Printf.sprintf "unknown response opcode %d" op))
  in
  P.expect_end r;
  resp

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let write_frame (fd : Unix.file_descr) (payload : string) : unit =
  let n = String.length payload in
  if n > default_max_frame then raise (Proto_error "outgoing frame too large");
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  write_all fd b 0 (4 + n)

(* [at_start] distinguishes a clean disconnect (EOF on a frame boundary,
   raised as [End_of_file]) from a torn frame (a protocol error). *)
let read_exact fd n ~at_start =
  let b = Bytes.create n in
  let rec go off =
    if off < n then begin
      let r = Unix.read fd b off (n - off) in
      if Int.equal r 0 then
        if at_start && Int.equal off 0 then raise End_of_file
        else raise (Proto_error "connection closed mid-frame");
      go (off + r)
    end
  in
  go 0;
  b

let read_frame (fd : Unix.file_descr) : string =
  let hdr = read_exact fd 4 ~at_start:true in
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if len < 0 || len > default_max_frame then
    raise (Proto_error (Printf.sprintf "frame length %d exceeds limit %d" len default_max_frame));
  Bytes.to_string (read_exact fd len ~at_start:false)
