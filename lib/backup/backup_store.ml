(** The backup store (paper Figure 1 and Section 2): creates and securely
    restores full and incremental database backups through the archival
    store.

    Guarantees, per the paper:
    - backups are created from copy-on-write chunk-store snapshots, so
      foreground transactions are not blocked and incrementals are cheap
      (Merkle-pruned diffs of two snapshots);
    - only *valid* backups restore: every stream is encrypted and MAC'd
      under keys derived from the platform secret store;
    - incremental backups restore only in the same sequence as they were
      created: each stream carries its id, its base id, and a hash chain
      over the cumulative contents, all checked during restore.

    Backup-chain state (last id, chain value, the snapshot to diff against)
    persists in the database itself at the reserved chunk id 0, so it
    participates in the chunk store's own tamper protection. *)

open Tdb_chunk

exception Invalid_backup of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_backup s)) fmt

let state_cid = 0
let magic = "TDBB"

type kind = Full | Incremental of int (* base backup id *)

type header = { id : int; kind : kind; seq : int (* snapshot seq, informational *) }

(* persistent backup-chain state, stored at [state_cid] *)
type chain_state = { last_id : int; chain : string; base_snapshot : int option }

type t = {
  cs : Chunk_store.t;
  archive : Tdb_platform.Archival_store.t;
  cipher : Tdb_crypto.Cbc.cipher;
  mac_key : string;
  iv_key : string;
}

(* --- chain state persistence --- *)

let encode_state (s : chain_state) : string =
  let module P = Tdb_pickle.Pickle in
  let w = P.writer () in
  P.uint w s.last_id;
  P.string w s.chain;
  P.option w (fun w v -> P.uint w v) s.base_snapshot;
  P.contents w

let decode_state (data : string) : chain_state =
  let module P = Tdb_pickle.Pickle in
  let r = P.reader data in
  let last_id = P.read_uint r in
  let chain = P.read_string r in
  let base_snapshot = P.read_option r P.read_uint in
  P.expect_end r;
  { last_id; chain; base_snapshot }

let load_state t : chain_state =
  match Chunk_store.read t.cs state_cid with
  | data -> decode_state data
  | exception Types.Not_written _ -> { last_id = 0; chain = "genesis"; base_snapshot = None }

let save_state t (s : chain_state) : unit =
  Chunk_store.write t.cs state_cid (encode_state s);
  Chunk_store.commit ~durable:true t.cs

let chain_state t : chain_state = load_state t

let metrics t : Metrics.t =
  let s = chain_state t in
  Metrics.
    [
      ("backup.last_id", Int s.last_id);
      ("backup.base_snapshot", Int (match s.base_snapshot with Some v -> v | None -> -1));
      ("backup.chain", Text (Tdb_crypto.Hex.of_string s.chain));
    ]

let create ~(secret : Tdb_platform.Secret_store.t) ~(archive : Tdb_platform.Archival_store.t)
    (cs : Chunk_store.t) : t =
  {
    cs;
    archive;
    cipher =
      Tdb_crypto.Cbc.make
        (module Tdb_crypto.Aes)
        ~secret:(Tdb_platform.Secret_store.derive_len secret "backup-cipher" Tdb_crypto.Aes.key_size);
    mac_key = Tdb_platform.Secret_store.derive secret "backup-mac";
    iv_key = Tdb_platform.Secret_store.derive secret "backup-iv";
  }

let archive t = t.archive

(* --- stream framing --- *)

let encode_header (h : header) : string =
  let module P = Tdb_pickle.Pickle in
  let w = P.writer () in
  P.uint w 1 (* format version *);
  P.uint w h.id;
  (match h.kind with
  | Full -> P.byte w 0
  | Incremental base ->
      P.byte w 1;
      P.uint w base);
  P.uint w h.seq;
  P.contents w

let decode_header (s : string) : header =
  let module P = Tdb_pickle.Pickle in
  let r = P.reader s in
  (match P.read_uint r with 1 -> () | v -> invalid "unsupported backup format %d" v);
  let id = P.read_uint r in
  let kind = match P.read_byte r with 0 -> Full | 1 -> Incremental (P.read_uint r) | k -> invalid "bad kind %d" k in
  let seq = P.read_uint r in
  P.expect_end r;
  { id; kind; seq }

(** body := changed chunks + removed ids (removed is empty for full). *)
let encode_body ~(changed : (int * string) list) ~(removed : int list) : string =
  let module P = Tdb_pickle.Pickle in
  let w = P.writer () in
  P.list w
    (fun w (cid, data) ->
      P.uint w cid;
      P.string w data)
    changed;
  P.list w (fun w cid -> P.uint w cid) removed;
  P.contents w

let decode_body (s : string) : (int * string) list * int list =
  let module P = Tdb_pickle.Pickle in
  let r = P.reader s in
  let changed =
    P.read_list r (fun r ->
        let cid = P.read_uint r in
        let data = P.read_string r in
        (cid, data))
  in
  let removed = P.read_list r P.read_uint in
  P.expect_end r;
  (changed, removed)

let frame t (h : header) (body : string) ~(chain : string) : string * string =
  (* returns (stream, new_chain) *)
  let header = encode_header h in
  let chained = chain ^ header ^ body in
  (* synthetic IV: a MAC of the bytes the chain covers, under its own key,
     so it repeats only for an identical frame (DESIGN.md, "IVs") *)
  let iv = String.sub (Tdb_crypto.Hmac.sha256 ~key:t.iv_key chained) 0 (Tdb_crypto.Cbc.block_size t.cipher) in
  let sealed = Tdb_crypto.Cbc.encrypt t.cipher ~iv body in
  let new_chain = Tdb_crypto.Hmac.sha256 ~key:t.mac_key chained in
  let module P = Tdb_pickle.Pickle in
  let w = P.writer () in
  Buffer.add_string w.P.buf magic;
  P.string w header;
  P.string w sealed;
  P.string w new_chain;
  let pre_mac = P.contents w in
  let mac = Tdb_crypto.Hmac.sha256 ~key:t.mac_key pre_mac in
  (pre_mac ^ mac, new_chain)

type parsed = { p_header : header; p_changed : (int * string) list; p_removed : int list; p_chain : string }

(* Check the stream's MAC and decode it. The chain value it carries is
   checked against the target store's chain state when it is applied. *)
let unframe t (stream : string) : parsed =
  let n = String.length stream in
  let mac_len = Tdb_crypto.Sha256.digest_size in
  if n < 4 + mac_len then invalid "backup stream truncated";
  if not (String.equal (String.sub stream 0 4) magic) then invalid "bad backup magic";
  let body_part = String.sub stream 0 (n - mac_len) in
  let mac = String.sub stream (n - mac_len) mac_len in
  if not (Tdb_crypto.Ct.equal_string mac (Tdb_crypto.Hmac.sha256 ~key:t.mac_key body_part)) then
    invalid "backup MAC verification failed";
  let module P = Tdb_pickle.Pickle in
  let r = P.reader ~off:4 ~len:(String.length body_part - 4) body_part in
  let header_s = P.read_string r in
  let sealed = P.read_string r in
  let p_chain = P.read_string r in
  P.expect_end r;
  let p_header = decode_header header_s in
  let body = try Tdb_crypto.Cbc.decrypt t.cipher sealed with Tdb_crypto.Cbc.Bad_padding -> invalid "backup body corrupt" in
  let p_changed, p_removed = decode_body body in
  { p_header; p_changed; p_removed; p_chain }

let stream_name (h : header) : string =
  Printf.sprintf "tdb-%06d-%s" h.id (match h.kind with Full -> "full" | Incremental _ -> "incr")

(** Parse an archive entry name back to (id, kind). Names are untrusted
    hints that steer frame selection ({!select}); every frame's MAC and
    chain are verified before anything is believed. *)
let parse_name (name : string) : (int * [ `Full | `Incremental ]) option =
  let n = String.length name in
  if n < 4 + 1 + 5 || not (String.equal (String.sub name 0 4) "tdb-") then None
  else
    let digits = String.sub name 4 (n - 9) in
    let kind = match String.sub name (n - 5) 5 with "-full" -> Some `Full | "-incr" -> Some `Incremental | _ -> None in
    match (int_of_string_opt digits, kind) with
    | Some id, Some k when id > 0 -> Some (id, k)
    | _ -> None

(* --- backup creation --- *)

(* Snapshot, stream the difference from [base] (every chunk when [None]:
   a full backup, which resets the incremental chain) into the archive,
   and make the new snapshot the next base. Returns the backup id. *)
let backup_from t (st : chain_state) ~(base : int option) : int =
  let snap = Chunk_store.snapshot t.cs in
  let changed = ref [] and removed = ref [] in
  Chunk_store.diff_snapshots t.cs ~old_id:base ~new_id:snap
    ~changed:(fun cid data -> if not (Int.equal cid state_cid) then changed := (cid, data) :: !changed)
    ~removed:(fun cid -> if not (Int.equal cid state_cid) then removed := cid :: !removed);
  let id = st.last_id + 1 in
  let kind, chain = match base with None -> (Full, "genesis") | Some _ -> (Incremental st.last_id, st.chain) in
  let header = { id; kind; seq = Chunk_store.snapshot_seq t.cs snap } in
  let body = encode_body ~changed:(List.rev !changed) ~removed:(List.rev !removed) in
  let stream, new_chain = frame t header body ~chain in
  Tdb_platform.Archival_store.put t.archive ~name:(stream_name header) stream;
  Option.iter (Chunk_store.release_snapshot t.cs) st.base_snapshot;
  save_state t { last_id = id; chain = new_chain; base_snapshot = Some snap };
  id

(** Create a full backup; resets the incremental chain. Returns the backup
    id. *)
let backup_full t : int = backup_from t (load_state t) ~base:None

(** Create an incremental backup against the previous backup (full or
    incremental). Falls back to a full backup when there is no base. *)
let backup_incremental t : int =
  let st = load_state t in
  backup_from t st ~base:st.base_snapshot

(* --- replication ingest --- *)

(** Check one unframed stream (its MAC already verified by {!unframe})
    against this store's persisted chain state, then apply it atomically:
    the follower side of replication, and each step of {!restore}.

    Verification strictly precedes mutation: the stream's header and its
    chain value (recomputed from the persisted chain state) must check
    out before a single chunk is touched. The apply itself is
    staged: every restored chunk, every deallocation *and the advanced
    chain state* land in one batch made durable by a single commit, so a
    crash at any point leaves the store at the previous consistent
    snapshot with a chain state that still matches it.

    A [Full] stream re-bootstraps the follower in place: live ids absent
    from the stream are deallocated in the same batch, so a stale follower
    converges without ever passing through an empty store. Fulls with
    [id <= last_id] are rejected — accepting one would let a replayed old
    archive roll the follower back.

    Returns the applied header (its [seq] is the primary commit sequence
    this follower now reflects).
    @raise Invalid_backup on any verification failure; the store is
    unchanged. *)
let apply t (p : parsed) : header =
  let st = load_state t in
  let h = p.p_header in
  let base_chain =
    match h.kind with
    | Full ->
        if h.id <= st.last_id then
          invalid "full backup %d replayed against chain state %d (rollback refused)" h.id st.last_id;
        "genesis"
    | Incremental base ->
        if (not (Int.equal base st.last_id)) || not (Int.equal h.id (st.last_id + 1)) then
          invalid "incremental %d (base %d) does not extend chain state %d" h.id base st.last_id;
        st.chain
  in
  let expected =
    Tdb_crypto.Hmac.sha256 ~key:t.mac_key
      (base_chain ^ encode_header h ^ encode_body ~changed:p.p_changed ~removed:p.p_removed)
  in
  if not (Tdb_crypto.Ct.equal_string expected p.p_chain) then
    invalid "chain mismatch at backup %d (out-of-sequence or forged)" h.id;
  (try
     (match h.kind with
     | Full ->
         let keep = Hashtbl.create (List.length p.p_changed + 1) in
         List.iter (fun (cid, _) -> Hashtbl.replace keep cid ()) p.p_changed;
         List.iter
           (fun cid ->
             if (not (Hashtbl.mem keep cid)) && not (Int.equal cid state_cid) then
               match Chunk_store.deallocate t.cs cid with () -> () | exception Types.Not_allocated _ -> ())
           (Chunk_store.live_ids t.cs)
     | Incremental _ -> ());
     List.iter (fun (cid, data) -> Chunk_store.restore_chunk t.cs cid data) p.p_changed;
     List.iter
       (fun cid -> match Chunk_store.deallocate t.cs cid with () -> () | exception Types.Not_allocated _ -> ())
       p.p_removed
   with Types.Chunk_too_large { cid; size; max } ->
     Chunk_store.abort_batch t.cs;
     invalid "backup record for chunk %d is %d bytes (limit %d)" cid size max);
  let st' = { last_id = h.id; chain = p.p_chain; base_snapshot = None } in
  Chunk_store.restore_chunk t.cs state_cid (encode_state st');
  Chunk_store.commit ~durable:true t.cs;
  h

let apply_stream t (stream : string) : header = apply t (unframe t stream)

(* --- frame selection and restore --- *)

(** The archive's stream names with id above [after], as (id, name)
    sorted by id; names {!parse_name} does not accept are skipped. Reads
    names only: no stream is fetched. *)
let index (archive : Tdb_platform.Archival_store.t) ~(after : int) : (int * string) list =
  Tdb_platform.Archival_store.list archive
  |> List.filter_map (fun name ->
         match parse_name name with Some (id, _) when id > after -> Some (id, name) | _ -> None)
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(** The one frame-selection rule, for restore and the follower alike
    (see the interface). *)
let select ~(index : (int * string) list) ~(last_id : int) ~(reject_streak : int) : (int * string) list =
  let newest_full =
    List.fold_left
      (fun acc (id, name) -> match parse_name name with Some (_, `Full) -> max acc id | _ -> acc)
      0 index
  in
  let retry_full = reject_streak > 0 && Int.equal (reject_streak land 1) 0 in
  let first = if retry_full || newest_full > last_id + 1 then newest_full else last_id + 1 in
  List.filter (fun (id, _) -> id >= first) index |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(** The frames a restore applies: {!select} from position 0 over the
    entries at or below [upto]. *)
let restore_chain ?upto (index : (int * string) list) : (int * string) list =
  let index = match upto with None -> index | Some u -> List.filter (fun (id, _) -> id <= u) index in
  select ~index ~last_id:0 ~reject_streak:0

(** Validated restore into a fresh chunk store: a follower catching up
    from empty. The names {!select} picks must run contiguously from a
    full, so a gap is refused before anything is applied; then each frame
    is read and applied by {!apply_stream}, one at a time. *)
let restore ~(secret : Tdb_platform.Secret_store.t) ~(archive : Tdb_platform.Archival_store.t)
    ?(upto : int option) ~(into : Chunk_store.t) () : int =
  let t = create ~secret ~archive into in
  let chain = restore_chain ?upto (index archive ~after:0) in
  (match chain with
  | (first, name) :: _ when (match parse_name name with Some (_, `Full) -> true | _ -> false) ->
      List.iteri
        (fun i (id, _) ->
          if not (Int.equal id (first + i)) then invalid "incremental sequence broken after backup %d" (first + i - 1))
        chain
  | _ -> invalid "no full backup available");
  let last =
    List.fold_left
      (fun _ (_, name) ->
        match Tdb_platform.Archival_store.get archive ~name with
        | None -> invalid "backup stream %s vanished" name
        | Some stream -> (apply_stream t stream).id)
      0 chain
  in
  Chunk_store.checkpoint into;
  last
