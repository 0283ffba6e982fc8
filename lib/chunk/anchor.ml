(** The anchor: the known location in the untrusted store where TDB keeps
    "the resulting hash value along with the current value of the one-way
    counter ... signed with the secret key" (paper Section 3).

    Two fixed-size slots at the start of the store are written alternately
    (epoch parity picks the slot), so a crash during an anchor write leaves
    the previous anchor intact; readers pick the valid slot with the highest
    epoch. Validity is an HMAC under the anchor key (a plain digest when
    security is off — still torn-write-proof, just not attacker-proof). *)

open Types

type payload = {
  epoch : int;
  segment_size : int; (* layout parameters, checked at open *)
  map_fanout : int;
  map_depth : int;
  seq : int; (* last commit sequence at checkpoint *)
  root : entry option; (* location map root; None for empty database *)
  tail_seg : int;
  tail_off : int;
  counter : int64; (* one-way counter value at checkpoint *)
  next_id : int;
  chain : string; (* commit-chain MAC value at checkpoint *)
  snapshots : (int * entry option * int) list; (* id, root (None = empty db), seq *)
}

let magic = "TDBA"

let encode (p : payload) : string =
  let module P = Tdb_pickle.Pickle in
  let w = P.writer () in
  P.uint w p.epoch;
  P.uint w p.segment_size;
  P.uint w p.map_fanout;
  P.uint w p.map_depth;
  P.uint w p.seq;
  P.option w (fun w e -> Location_map.write_entry w e) p.root;
  P.uint w p.tail_seg;
  P.uint w p.tail_off;
  P.int64 w p.counter;
  P.uint w p.next_id;
  P.string w p.chain;
  P.list w
    (fun w (id, e, seq) ->
      P.uint w id;
      P.option w (fun w e -> Location_map.write_entry w e) e;
      P.uint w seq)
    p.snapshots;
  P.contents w

let decode (s : string) : payload =
  let module P = Tdb_pickle.Pickle in
  let r = P.reader s in
  let epoch = P.read_uint r in
  let segment_size = P.read_uint r in
  let map_fanout = P.read_uint r in
  let map_depth = P.read_uint r in
  let seq = P.read_uint r in
  let root = P.read_option r Location_map.read_entry in
  let tail_seg = P.read_uint r in
  let tail_off = P.read_uint r in
  let counter = P.read_int64 r in
  let next_id = P.read_uint r in
  let chain = P.read_string r in
  let snapshots =
    P.read_list r (fun r ->
        let id = P.read_uint r in
        let e = P.read_option r Location_map.read_entry in
        let seq = P.read_uint r in
        (id, e, seq))
  in
  (* Stores written while the log had a generational cleaner may carry a
     trailing (segment, tier) table. The tags are only cleaning hints, so
     the table is parsed (a truncated one is still malformed) and dropped. *)
  if not (P.at_end r) then
    ignore
      (P.read_list r (fun r ->
           let seg = P.read_uint r in
           let tier = P.read_uint r in
           (seg, tier)));
  P.expect_end r;
  { epoch; segment_size; map_fanout; map_depth; seq; root; tail_seg; tail_off; counter; next_id; chain; snapshots }

(** Write the anchor into the slot selected by its epoch, then sync. *)
let write (sec : Security.t) (store : Tdb_platform.Untrusted_store.t) ~(slot_size : int) (p : payload) : unit =
  let body = encode p in
  let mac = Security.mac sec body in
  let framed =
    let module P = Tdb_pickle.Pickle in
    let w = P.writer () in
    Buffer.add_string w.P.buf magic;
    P.int32_fixed w (String.length body);
    Buffer.add_string w.P.buf body;
    Buffer.add_string w.P.buf mac;
    P.contents w
  in
  if String.length framed > slot_size then failwith "Anchor.write: anchor exceeds slot size";
  let slot = p.epoch land 1 in
  Tdb_platform.Untrusted_store.write store ~off:(slot * slot_size) framed;
  Tdb_platform.Untrusted_store.sync store

let read_slot (sec : Security.t) (store : Tdb_platform.Untrusted_store.t) ~(slot_size : int) (slot : int)
    : payload option =
  let size = Tdb_platform.Untrusted_store.size store in
  let off = slot * slot_size in
  if size < off + 8 then None
  else begin
    let header = Bytes.to_string (Tdb_platform.Untrusted_store.read store ~off ~len:8) in
    if not (String.equal (String.sub header 0 4) magic) then None
    else begin
      let blen =
        (Char.code header.[4] lsl 24) lor (Char.code header.[5] lsl 16) lor (Char.code header.[6] lsl 8)
        lor Char.code header.[7]
      in
      if blen < 0 || off + 8 + blen + Security.mac_len > size || blen > slot_size then None
      else begin
        let body = Bytes.to_string (Tdb_platform.Untrusted_store.read store ~off:(off + 8) ~len:blen) in
        let mac = Bytes.to_string (Tdb_platform.Untrusted_store.read store ~off:(off + 8 + blen) ~len:Security.mac_len) in
        if not (Security.check_mac sec ~expected:mac body ~what:"anchor") then None
        else match decode body with p -> Some p | exception _ -> None
      end
    end
  end

(** Read the current anchor: the valid slot with the highest epoch.
    Returns [None] when neither slot is valid (fresh store — or a wipe;
    the caller distinguishes the two with the one-way counter). *)
let read (sec : Security.t) (store : Tdb_platform.Untrusted_store.t) ~(slot_size : int) : payload option =
  match (read_slot sec store ~slot_size 0, read_slot sec store ~slot_size 1) with
  | None, None -> None
  | Some p, None | None, Some p -> Some p
  | Some a, Some b -> Some (if a.epoch >= b.epoch then a else b)
