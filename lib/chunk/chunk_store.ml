(** The chunk store (paper Section 3): trusted storage for named,
    variable-sized byte sequences on top of an untrusted store.

    Guarantees:
    - secrecy: every stored payload is encrypted (when security is on);
    - tamper detection: payloads are validated against the Merkle tree
      embedded in the location map, whose root lives in the MAC'd anchor;
    - replay detection: durable commits advance the platform one-way
      counter, and recovery cross-checks it against the committed state;
    - atomicity: a batch of writes/deallocates commits atomically with
      respect to crashes, durably or nondurably;
    - log-structured storage with cleaning, bounded by a configurable
      maximum utilization (grow-vs-clean policy, paper Section 7.3);
    - cheap copy-on-write snapshots, diffable (the substrate
      for full/incremental backups).

    Concurrency: the chunk store itself is single-threaded; the object
    store serializes access with its state mutex (paper Section 4.2.3). *)

open Types

type op = Op_write of string | Op_dealloc

type snapshot = { snap_root : entry option (* None = empty database *); snap_seq : int; snap_segs : int list }

type stats = {
  mutable commits : int;
  mutable durable_commits : int;
  mutable checkpoints : int;
  mutable clean_passes : int;
  mutable segments_cleaned : int;
  mutable chunks_relocated : int;
  mutable bytes_relocated : int; (* chunk ciphertext bytes the cleaner recopied *)
  mutable live_segments : int; (* segments holding live bytes, gauge *)
  mutable tampers : int;
  mutable bytes_data : int; (* chunk-record payload bytes appended *)
  mutable bytes_map : int; (* map-node payload bytes appended *)
  mutable bytes_commit : int; (* commit-record payload bytes appended *)
  mutable grow_policy : int;
  mutable grow_fallback : int;
  mutable grow_backstop : int;
  mutable cache_hits : int; (* verified-chunk cache counters, mirrored *)
  mutable cache_misses : int;
  mutable cache_evictions : int;
}

type t = {
  cfg : Config.t;
  sec : Security.t;
  counter : Tdb_platform.One_way_counter.t;
  store : Tdb_platform.Untrusted_store.t;
  log : Log.t;
  map : Location_map.t;
  pending : (chunk_id, op) Hashtbl.t; (* current batch *)
  allocated : (chunk_id, unit) Hashtbl.t; (* allocated, never yet written *)
  cache : Chunk_cache.t; (* verified-chunk read cache (committed state only) *)
  mutable next_id : chunk_id;
  mutable seq : int; (* last commit sequence number *)
  mutable chain : string; (* commit-chain MAC value *)
  mutable last_counter : int64;
  mutable epoch : int; (* anchor epoch *)
  mutable snapshots : (int * snapshot) list;
  mutable next_snap_id : int;
  mutable cleaning : bool;
  mutable promotable : bool;
      (* nondurable commits sit above the last durable point; the next
         checkpoint will promote them and must bump the one-way counter *)
  mutable barrier_inflight : bool;
      (* a durable point's counter increment is pending until
         [barrier_finish]: a second one raises, and checkpoints (whose
         promote protocol needs the hardware counter in step) wait *)
  stats : stats;
}

let fresh_stats () =
  { commits = 0; durable_commits = 0; checkpoints = 0; clean_passes = 0; segments_cleaned = 0;
    chunks_relocated = 0; bytes_relocated = 0; live_segments = 0; tampers = 0;
    bytes_data = 0; bytes_map = 0; bytes_commit = 0; grow_policy = 0; grow_fallback = 0; grow_backstop = 0;
    cache_hits = 0; cache_misses = 0; cache_evictions = 0 }

(* ------------------------------------------------------------------ *)
(* Low-level record I/O                                                *)
(* ------------------------------------------------------------------ *)

(** Validated fetch used by the location map: read, check Merkle label,
    decrypt. *)
let fetch t : Location_map.fetch =
 fun ~what (e : entry) ->
  let stored = Log.read_payload t.log e in
  (try Security.check_label t.sec ~expected:e.hash stored ~what with
  | Tamper_detected _ as exn ->
      t.stats.tampers <- t.stats.tampers + 1;
      raise exn);
  Security.unseal t.sec stored

(* Grow conservatively: the utilization policy (ensure_space) is the only
   place that deliberately trades space for cleaning effort; this backstop
   merely keeps appends total without inflating the store. *)
let grow_step = 2

(** Append, growing the store if the free list runs dry. The clean-vs-grow
    *policy* runs before commits; this is the backstop that keeps appends
    total. *)
let rec append_rec ?(live = true) t kind sealed : int * int =
  match Log.append ~live t.log kind sealed with
  | pos ->
      (match kind with
      | Data_chunk -> t.stats.bytes_data <- t.stats.bytes_data + String.length sealed
      | Map_node -> t.stats.bytes_map <- t.stats.bytes_map + String.length sealed
      | Commit -> t.stats.bytes_commit <- t.stats.bytes_commit + String.length sealed
      | Next_segment -> ());
      pos
  | exception Log.Need_segment ->
      t.stats.grow_backstop <- t.stats.grow_backstop + grow_step;
      Log.grow t.log ~segments:grow_step;
      append_rec ~live t kind sealed

(** Seal and append a payload, returning its location entry. *)
let append_payload t (kind : record_kind) ~(version : int) (plain : string) : entry =
  let sealed = Security.seal t.sec plain in
  let hash = Security.label t.sec sealed in
  let seg, off = append_rec t kind sealed in
  { seg; off; len = String.length sealed; hash; version }

let data_payload ~(cid : chunk_id) ~(version : int) (data : string) : string =
  let module P = Tdb_pickle.Pickle in
  let w = P.writer () in
  P.uint w cid;
  P.uint w version;
  P.string w data;
  P.contents w

let parse_data_payload (plain : string) : chunk_id * int * string =
  let module P = Tdb_pickle.Pickle in
  let r = P.reader plain in
  let cid = P.read_uint r in
  let version = P.read_uint r in
  let data = P.read_string r in
  P.expect_end r;
  (cid, version, data)

(* ------------------------------------------------------------------ *)
(* Commit records                                                      *)
(* ------------------------------------------------------------------ *)

type commit_body = {
  c_seq : int;
  c_kind : commit_kind;
  c_counter : int64;
  c_writes : (chunk_id * entry) list;
  c_deallocs : chunk_id list;
}

let encode_commit_body (b : commit_body) : string =
  let module P = Tdb_pickle.Pickle in
  let w = P.writer () in
  P.uint w b.c_seq;
  P.byte w (match b.c_kind with App { durable = false } -> 0 | App { durable = true } -> 1 | Clean -> 2 | Checkpoint -> 3);
  P.int64 w b.c_counter;
  P.list w
    (fun w (cid, e) ->
      P.uint w cid;
      Location_map.write_entry w e)
    b.c_writes;
  P.list w (fun w cid -> P.uint w cid) b.c_deallocs;
  P.contents w

let decode_commit_body (s : string) : commit_body =
  let module P = Tdb_pickle.Pickle in
  let r = P.reader s in
  let c_seq = P.read_uint r in
  let c_kind =
    match P.read_byte r with
    | 0 -> App { durable = false }
    | 1 -> App { durable = true }
    | 2 -> Clean
    | 3 -> Checkpoint
    | n -> tamper "unknown commit kind %d" n
  in
  let c_counter = P.read_int64 r in
  let c_writes =
    P.read_list r (fun r ->
        let cid = P.read_uint r in
        let e = Location_map.read_entry r in
        (cid, e))
  in
  let c_deallocs = P.read_list r (fun r -> P.read_uint r) in
  P.expect_end r;
  { c_seq; c_kind; c_counter; c_writes; c_deallocs }

(** Write a commit record: body plus the new chain-MAC link, sealed. *)
let append_commit_record t (body : commit_body) : unit =
  let encoded = encode_commit_body body in
  let link = Security.mac t.sec (t.chain ^ encoded) in
  let module P = Tdb_pickle.Pickle in
  let w = P.writer () in
  P.string w encoded;
  P.string w link;
  let sealed = Security.seal t.sec (P.contents w) in
  ignore (append_rec ~live:false t Commit sealed);
  t.chain <- link

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let write_anchor t ~(root : entry option) : unit =
  t.epoch <- t.epoch + 1;
  let tail_seg, tail_off = Log.tail_pos t.log in
  Anchor.write t.sec t.store ~slot_size:t.cfg.Config.anchor_slot_size
    {
      Anchor.epoch = t.epoch;
      segment_size = t.cfg.Config.segment_size;
      map_fanout = t.cfg.Config.map_fanout;
      map_depth = t.cfg.Config.map_depth;
      seq = t.seq;
      root;
      tail_seg;
      tail_off;
      counter = t.last_counter;
      next_id = t.next_id;
      chain = t.chain;
      snapshots = List.map (fun (id, s) -> (id, s.snap_root, s.snap_seq)) t.snapshots;
    }

(* Advance the hardware counter after a durable write; it must land on the
   value the durable record claims, or another writer advanced it. *)
let bump_counter t ~(expected : int64) : unit =
  if t.sec.Security.enabled then begin
    let hw = Tdb_platform.One_way_counter.increment t.counter in
    if not (Int64.equal hw expected) then
      tamper "one-way counter advanced externally (%Ld, expected %Ld)" hw expected
  end

(** Checkpoint: flush dirty map nodes bottom-up, then re-anchor. Ends every
    cleaning pass (so idle maintenance, where the paper defers this work),
    snapshots, open and close, and the commit that brings the residual log
    to [checkpoint_residual_bytes]. *)
let do_checkpoint t : unit =
  (* A checkpoint *promotes*: once the anchor captures state that includes
     nondurable commits, recovery reproduces them even though no durable
     commit vouched for them. Promotion is a durability event, so it must
     advance the one-way counter like a durable commit does — otherwise
     destroying the freshest anchor slot rolls the store back to the
     previous checkpoint without tripping the replay check (found by the
     tamper sweep at --txns 10: 17 silent flips, all in the newest anchor
     frame). Protocol mirrors [commit]: bump the expected value, write it
     durably (the anchor write syncs), then increment the hardware — a
     crash between the two is repaired by recovery's hw = c_last - 1 path. *)
  if t.barrier_inflight then
    invalid_arg "Chunk_store.checkpoint: staged barrier in flight";
  let promote = t.promotable && t.sec.Security.enabled in
  if promote then t.last_counter <- Int64.add t.last_counter 1L;
  let retired = ref [] in
  let root =
    Location_map.checkpoint t.map
      ~write_node:(fun payload -> append_payload t Map_node ~version:t.seq payload)
      ~retire:(fun e -> retired := e :: !retired)
  in
  (* all dirty map nodes (and any cleaner relocations that triggered this
     checkpoint) coalesce into one vectored flush before the sync *)
  Log.flush t.log;
  Tdb_platform.Untrusted_store.sync t.store;
  write_anchor t ~root;
  if promote then bump_counter t ~expected:t.last_counter;
  t.promotable <- false;
  (* The only place a map node's superseded copy dies: the old anchor
     reached it until [write_anchor] above. *)
  List.iter (Log.obsolete_entry t.log) !retired;
  Log.end_checkpoint t.log;
  Location_map.trim t.map ~keep:t.cfg.Config.map_leaves;
  t.stats.checkpoints <- t.stats.checkpoints + 1

(* ------------------------------------------------------------------ *)
(* Cleaning                                                            *)
(* ------------------------------------------------------------------ *)

(* Plaintext bytes that hold a record's identity: a data record's leading
   [cid] varint, a map node's leading [(level, base)] varints (a varint of
   a non-negative int takes at most 9 bytes). *)
let data_id_len = 10
let node_id_len = 20

(* The identity a sealed record claims, read from its first [len]
   plaintext bytes — only the cipher blocks holding them are decrypted.
   [None] when they do not decrypt or parse: stale garbage. *)
let claimed_id t (sealed : string) ~(len : int) (read : Tdb_pickle.Pickle.reader -> 'a) : 'a option =
  match read (Tdb_pickle.Pickle.reader (Security.unseal_prefix t.sec sealed ~len)) with
  | id -> Some id
  | exception (Tamper_detected _ | Tdb_pickle.Pickle.Error _) -> None

(** Reclaim up to [max_segments] of the least-utilized segments by copying
    their live records to the tail (ciphertext is position-independent, so
    bytes are copied verbatim, hashes unchanged) and dirtying live map
    nodes so the next checkpoint rewrites them. Ends with a checkpoint,
    which is the barrier that actually frees the segments.

    A record is identified from its leading plaintext bytes alone, and
    that claim is only a hint: it picks which authenticated map entry to
    consult, and the record is live iff that entry points at this exact
    position. A forged or damaged record the map still points at is
    copied verbatim under its old Merkle hash, so its next read raises
    [Tamper_detected] as it would had the cleaner dropped it; a claimed id
    the map cannot hold is garbage. *)
let clean_pass ?(max_segments = max_int) ?candidates t : unit =
  if t.cleaning then invalid_arg "Chunk_store.clean: reentrant call";
  t.cleaning <- true;
  Fun.protect
    ~finally:(fun () -> t.cleaning <- false)
    (fun () ->
      let candidates = match candidates with Some c -> c | None -> Log.clean_candidates t.log in
      let batch = List.filteri (fun i _ -> i < max_segments) candidates in
      if batch <> [] then begin
        let module P = Tdb_pickle.Pickle in
        let capacity = Location_map.capacity t.map in
        let relocated = ref [] in
        List.iter
          (fun seg ->
            let records = Log.scan_segment t.log seg in
            List.iter
              (fun (kind, poff, sealed) ->
                match kind with
                | Commit | Next_segment -> ()
                | Data_chunk -> (
                    match claimed_id t sealed ~len:data_id_len P.read_uint with
                    | Some cid when cid < capacity -> (
                        match Location_map.find t.map (fetch t) cid with
                        | Some e when Int.equal e.seg seg && Int.equal e.off poff ->
                            (* live: relocate ciphertext verbatim (the entry
                               keeps its version and hash, so cache entries
                               and Merkle labels survive the move) *)
                            let nseg, noff = append_rec t Data_chunk sealed in
                            let e' = { e with seg = nseg; off = noff } in
                            Option.iter (Log.obsolete_entry t.log) (Location_map.set t.map (fetch t) cid e');
                            relocated := (cid, e') :: !relocated;
                            t.stats.chunks_relocated <- t.stats.chunks_relocated + 1;
                            t.stats.bytes_relocated <- t.stats.bytes_relocated + String.length sealed
                        | _ -> ())
                    | _ -> ())
                | Map_node -> (
                    let level_base r =
                      let level = P.read_uint r in
                      (level, P.read_uint r)
                    in
                    match claimed_id t sealed ~len:node_id_len level_base with
                    | Some (level, base) when level < t.cfg.Config.map_depth -> (
                        (* live iff the current map's node at (level, base)
                           still points here; dirty it so the checkpoint
                           relocates it *)
                        match Location_map.find_node t.map (fetch t) ~level ~base with
                        | Some { Location_map.disk = Some e; _ } when Int.equal e.seg seg && Int.equal e.off poff ->
                            Location_map.dirty_path t.map (fetch t) ~level base
                        | _ -> ())
                    | _ -> ()))
              records;
            t.stats.segments_cleaned <- t.stats.segments_cleaned + 1)
          batch;
        (* Record relocations for recovery (split to fit segments), then
           checkpoint (the barrier). *)
        let group_size = max 8 (t.cfg.Config.segment_size / 4 / 64) in
        let rec emit = function
          | [] -> ()
          | batch ->
              let group = List.filteri (fun i _ -> i < group_size) batch in
              let rest = List.filteri (fun i _ -> i >= group_size) batch in
              t.seq <- t.seq + 1;
              append_commit_record t
                { c_seq = t.seq; c_kind = Clean; c_counter = t.last_counter; c_writes = group; c_deallocs = [] };
              emit rest
        in
        emit (List.rev !relocated);
        t.stats.clean_passes <- t.stats.clean_passes + 1;
        do_checkpoint t
      end)

(** The grow-vs-clean policy (paper Section 7.3). [ensure_free t ~segs]
    makes at least [segs] segments available before a batch of appends:
    while the store is below the configured maximum utilization, space
    comes from cleaning (relocating the garbage-heaviest segments); once
    live data alone exceeds [max_utilization] of the capacity, the store
    grows instead.

    This gating is what produces the paper's Figure 11 dynamics: the store
    floats at roughly [live / max_utilization] bytes, so the garbage
    fraction available to the cleaner is [1 - max_utilization] — cheap,
    half-empty segments at 50%, expensive nearly-full ones at 90%. *)
let ensure_free t ~(segs : int) : unit =
  if not t.cleaning then begin
    (* Hysteresis: only act when free space is genuinely low, then refill
       well past the trigger so cleaning bursts (and the map checkpoints
       they entail) amortize over many commits. The high mark doubles as
       the cleaner's copy reserve. *)
    let trigger = segs + 2 in
    let high = segs + (2 * t.cfg.Config.clean_batch) + 2 in
    if Log.free_count t.log < trigger then begin
    let segs = high in
    let rounds = ref 0 in
    while Log.free_count t.log < segs && !rounds < 8 do
      incr rounds;
      if Log.utilization t.log >= t.cfg.Config.max_utilization then begin
        let n = max grow_step (segs - Log.free_count t.log) in
        t.stats.grow_policy <- t.stats.grow_policy + n;
        Log.grow t.log ~segments:n
      end
      else begin
        (* if everything cleanable is still in the residual window,
           checkpoint first: that frees empty segments and unlocks the
           fragmented ones. While a barrier is in flight, checkpoints (and
           so cleaning passes, which end in one) wait: grow instead. *)
        if (not t.barrier_inflight) && Log.clean_candidates t.log = [] && Log.residual_bytes t.log > 0 then do_checkpoint t;
        match if t.barrier_inflight then [] else Log.clean_candidates t.log with
        | [] ->
            let n = max grow_step (segs - Log.free_count t.log) in
            t.stats.grow_fallback <- t.stats.grow_fallback + n;
            Log.grow t.log ~segments:n
        | _ -> clean_pass ~max_segments:t.cfg.Config.clean_batch t
      end
    done;
    if Log.free_count t.log < trigger then begin
      t.stats.grow_fallback <- t.stats.grow_fallback + (trigger - Log.free_count t.log);
      Log.grow t.log ~segments:(trigger - Log.free_count t.log)
    end
    end
  end

(* ------------------------------------------------------------------ *)
(* Public chunk operations                                             *)
(* ------------------------------------------------------------------ *)

let is_allocated t cid =
  match Hashtbl.find_opt t.pending cid with
  | Some (Op_write _) -> true
  | Some Op_dealloc -> false
  | None ->
      (cid >= 0 && cid < reserved_ids)
      || Hashtbl.mem t.allocated cid
      || Location_map.find t.map (fetch t) cid <> None

let allocate t : chunk_id =
  let cid = t.next_id in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.allocated cid ();
  cid

(** Restore-mode write: claim a specific chunk id and buffer data for it —
    used by the backup store to rebuild a database with its original ids
    (full backup lays chunks down, incrementals overwrite them). *)
let check_chunk_size t cid data =
  let max = Config.max_chunk_size t.cfg - Security.seal_overhead t.sec (String.length data) - 32 in
  if String.length data > max then raise (Chunk_too_large { cid; size = String.length data; max })

let restore_chunk t (cid : chunk_id) (data : string) : unit =
  if cid < 0 then invalid_arg "Chunk_store.restore_chunk: negative id";
  (* Same bound as [write]: a backup stream is untrusted input, and an
     oversized record must surface here as [Chunk_too_large], not blow up
     mid-commit after growing the store. *)
  check_chunk_size t cid data;
  t.next_id <- max t.next_id (cid + 1);
  Hashtbl.replace t.pending cid (Op_write data)

let write t (cid : chunk_id) (data : string) : unit =
  if not (is_allocated t cid) then raise (Not_allocated cid);
  check_chunk_size t cid data;
  Hashtbl.replace t.pending cid (Op_write data)

let read t (cid : chunk_id) : string =
  match Hashtbl.find_opt t.pending cid with
  | Some (Op_write data) -> data
  | Some Op_dealloc -> raise (Not_written cid)
  | None -> (
      match Location_map.find t.map (fetch t) cid with
      | None -> raise (Not_written cid)
      | Some e -> (
          (* The map entry's version is the coherence token: a cached
             payload is served only at the exact committed version, so
             writes, deallocations and recovery need no explicit
             invalidation sweep — and cleaning, which preserves versions,
             costs the cache nothing. *)
          match Chunk_cache.find t.cache cid ~version:e.version with
          | Some data -> data
          | None ->
              let plain = fetch t ~what:(fun () -> Printf.sprintf "chunk %d" cid) e in
              let cid', version, data = try parse_data_payload plain with Tdb_pickle.Pickle.Error _ -> tamper "malformed chunk %d" cid in
              if (not (Int.equal cid' cid)) || not (Int.equal version e.version) then tamper "chunk %d identity mismatch" cid;
              Chunk_cache.put t.cache cid ~version:e.version data;
              data ) )

let deallocate t (cid : chunk_id) : unit =
  if not (is_allocated t cid) then raise (Not_allocated cid);
  if Hashtbl.mem t.allocated cid && Location_map.find t.map (fetch t) cid = None then begin
    (* never written: nothing persistent to do *)
    Hashtbl.remove t.allocated cid;
    Hashtbl.remove t.pending cid
  end
  else Hashtbl.replace t.pending cid Op_dealloc

(** Discard the current (uncommitted) batch. *)
let abort_batch t : unit = Hashtbl.reset t.pending

let batch_size t = Hashtbl.length t.pending

(* Commit records must fit in one segment. Very large batches (bulk loads)
   are split into chained sub-commits: every sub-commit but the last is
   nondurable, so recovery applies the whole chain iff the final record —
   the only durable barrier — landed; atomicity of the batch is
   preserved. *)
let max_commit_record_bytes t = t.cfg.Config.segment_size / 4

let checkpoint ?(reserve = false) t : unit =
  if Hashtbl.length t.pending > 0 then invalid_arg "Chunk_store.checkpoint: commit or abort the batch first";
  if reserve then begin
    (* make room for the map nodes the checkpoint will write, so it never
       has to grow the store outside the policy *)
    let est_bytes = Location_map.count_dirty t.map * t.cfg.Config.map_fanout * (16 + t.sec.Security.hash_len) in
    ensure_free t ~segs:(min 16 (2 + (est_bytes / t.cfg.Config.segment_size)))
  end;
  do_checkpoint t

(* After a commit or barrier: checkpoint once the residual log reaches
   [checkpoint_residual_bytes] (never inside a staged barrier). *)
let note_commit t : unit =
  if (not t.barrier_inflight) && Log.residual_bytes t.log >= t.cfg.Config.checkpoint_residual_bytes then
    checkpoint ~reserve:true t

(* Append the batch (possibly empty) and its closing commit record, and
   flush them. A durable stage's record claims the next counter value:
   the caller must run a barrier's sync and finish to land it. *)
let stage t ~(durable : bool) : unit =
  (* reserve space for the batch, its commit records and checkpoint
     map writes that may piggyback on it *)
  let batch_bytes =
    Hashtbl.fold
      (fun _ op acc -> match op with Op_write data -> acc + String.length data + 128 | Op_dealloc -> acc + 16)
      t.pending 0
  in
  ensure_free t ~segs:(2 + (batch_bytes * 3 / 2 / t.cfg.Config.segment_size));
  t.seq <- t.seq + 1;
  (* Replay-protection protocol: the commit record carries the counter
     value this commit *will* advance the one-way counter to; the
     increment itself happens only after the record is durable. Recovery
     then accepts exactly hw = c_last (normal) or hw = c_last - 1 (crash
     between sync and increment — repaired by incrementing), so replaying
     any saved image on which a later durable commit happened makes
     hw > c_last and is detected. *)
  if durable && t.sec.Security.enabled then t.last_counter <- Int64.add t.last_counter 1L;
  let budget = max_commit_record_bytes t in
  (* Group the batch once, in table order: each group becomes one
     sub-commit, closed as soon as its commit-record body reaches the
     budget (the closing group may be empty). *)
  let groups =
    let closed, open_, _ =
      List.fold_left
        (fun (closed, cur, body) (cid, op) ->
          let body = body + (match op with Op_write _ -> 48 + t.sec.Security.hash_len | Op_dealloc -> 10) in
          if body >= budget then (List.rev ((cid, op) :: cur) :: closed, [], 0)
          else (closed, (cid, op) :: cur, body))
        ([], [], 0)
        (List.rev (Hashtbl.fold (fun cid op acc -> (cid, op) :: acc) t.pending []))
    in
    List.rev (List.rev open_ :: closed)
  in
  (* Seal every write at its group's sequence number first, so every
     data record's IV is drawn, in op order, before the batch's first
     commit record draws its own. *)
  let sealed_groups =
    List.mapi
      (fun i group ->
        List.map
          (fun (cid, op) ->
            match op with
            | Op_write data ->
                let sealed = Security.seal t.sec (data_payload ~cid ~version:(t.seq + i) data) in
                (cid, `Write (data, sealed, Security.label t.sec sealed))
            | Op_dealloc -> (cid, `Dealloc))
          group)
      groups
  in
  let last = List.length sealed_groups - 1 in
  List.iteri
    (fun i group ->
      let writes, deallocs =
        List.fold_left
          (fun (writes, deallocs) (cid, op) ->
            match op with
            | `Write (data, sealed, hash) ->
                let seg, off = append_rec t Data_chunk sealed in
                let e = { seg; off; len = String.length sealed; hash; version = t.seq } in
                Option.iter (Log.obsolete_entry t.log) (Location_map.set t.map (fetch t) cid e);
                Hashtbl.remove t.allocated cid;
                (* write-through: refresh the verified cache at the new
                   committed version so read-after-write stays a hit *)
                Chunk_cache.put t.cache cid ~version:e.version data;
                ((cid, e) :: writes, deallocs)
            | `Dealloc ->
                Option.iter (Log.obsolete_entry t.log) (Location_map.remove t.map (fetch t) cid);
                Chunk_cache.remove t.cache cid;
                (writes, cid :: deallocs))
          ([], []) group
      in
      append_commit_record t
        {
          c_seq = t.seq;
          c_kind = App { durable = durable && Int.equal i last };
          c_counter = t.last_counter;
          c_writes = List.rev writes;
          c_deallocs = List.rev deallocs;
        };
      if i < last then t.seq <- t.seq + 1)
    sealed_groups;
  Hashtbl.reset t.pending;
  (* One store write pass per commit: everything the batch appended —
     chunk records, sub-commit chain, the final commit record — lands as
     a single vectored flush, ahead of the barrier's sync. *)
  Log.flush t.log;
  (* a durable commit covers every nondurable one before it; a
     nondurable commit leaves state the next checkpoint would promote *)
  t.promotable <- not durable;
  t.stats.commits <- t.stats.commits + 1

(** Durable points. [barrier_begin] stages the pending batch (possibly
    empty) under a durable closing record; its caller may release the
    state lock before [barrier_sync], so group commit can coalesce, and a
    durable commit runs the three stages back to back. One durable point
    is in flight at a time: each claims the next counter value, and a
    second would bump the hardware counter out of the order the records
    claim. A barrier with an empty batch and nothing to promote is idle:
    its three stages touch nothing, so an idle durable point costs no sync
    and no counter bump. *)
type barrier_token = Idle | Claims of int64 (* counter value the closing record claims *)

let barrier_begin t : barrier_token =
  if Int.equal (Hashtbl.length t.pending) 0 && not t.promotable then Idle
  else begin
    if t.barrier_inflight then invalid_arg "Chunk_store: a durable point is already in flight";
    stage t ~durable:true;
    t.barrier_inflight <- true;
    (* commits landing before [barrier_finish] sit after this record *)
    Log.hold t.log;
    Claims t.last_counter
  end

(** Force the store and bump the hardware counter. Safe outside the state
    lock while only nondurable commits run: they append after the
    barrier's record, so the prefix it makes durable is unaffected. *)
let barrier_sync t (tok : barrier_token) : unit =
  match tok with
  | Idle -> ()
  | Claims counter ->
      Tdb_platform.Untrusted_store.sync t.store;
      bump_counter t ~expected:counter

(** Reclaim space and account, back under the state lock. *)
let barrier_finish t (tok : barrier_token) : unit =
  match tok with
  | Idle -> ()
  | Claims _ ->
      t.barrier_inflight <- false;
      Log.barrier t.log;
      t.stats.durable_commits <- t.stats.durable_commits + 1;
      note_commit t

let durable_barrier t : unit =
  let tok = barrier_begin t in
  barrier_sync t tok;
  barrier_finish t tok

let commit ?(durable = true) t : unit =
  if Hashtbl.length t.pending > 0 then
    if durable then durable_barrier t
    else begin
      stage t ~durable:false;
      note_commit t
    end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

(** Segments referenced by a tree rooted at [root]. *)
let tree_segments t (root : entry option) : int list =
  match root with
  | None -> []
  | Some root ->
      let segs = Hashtbl.create 64 in
      Location_map.walk_tree ~fanout:t.cfg.Config.map_fanout (fetch t) ~root
        ~data:(fun _ e -> Hashtbl.replace segs e.seg ())
        ~node:(fun e -> Hashtbl.replace segs e.seg ());
      Hashtbl.fold (fun s () acc -> s :: acc) segs []

(** Take a copy-on-write snapshot of the committed state: checkpoint, then
    pin the segments the checkpointed tree lives in. O(map) time, no data
    copying — the paper's "inexpensively snapshot using copy-on-write". *)
let snapshot t : int =
  checkpoint t;
  let root = Location_map.root_entry t.map in
  let id = t.next_snap_id in
  t.next_snap_id <- t.next_snap_id + 1;
  let segs = tree_segments t root in
  List.iter (fun s -> Log.pin t.log s) segs;
  t.snapshots <- (id, { snap_root = root; snap_seq = t.seq; snap_segs = segs }) :: t.snapshots;
  write_anchor t ~root;
  id

let find_snapshot t id =
  match List.assoc_opt id t.snapshots with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Chunk_store: unknown snapshot %d" id)

let release_snapshot t (id : int) : unit =
  let s = find_snapshot t id in
  t.snapshots <- List.remove_assoc id t.snapshots;
  List.iter (fun seg -> Log.unpin t.log seg) s.snap_segs;
  (* Re-anchor without the snapshot and let the barrier reclaim its
     segments. *)
  checkpoint t

let snapshot_seq t id = (find_snapshot t id).snap_seq

(** Stream the differences between two snapshots (the backup substrate):
    [changed] for added/updated chunks, [removed] for deallocated ones.
    Identical subtrees are pruned by Merkle hash; with no [old_id] every
    chunk of the new snapshot is [changed], in ascending id order. *)
let diff_snapshots t ~(old_id : int option) ~(new_id : int) ~(changed : chunk_id -> string -> unit)
    ~(removed : chunk_id -> unit) : unit =
  let old_root = Option.bind old_id (fun id -> (find_snapshot t id).snap_root) in
  Location_map.diff_trees ~fanout:t.cfg.Config.map_fanout (fetch t) ~old_root
    ~new_root:(find_snapshot t new_id).snap_root
    ~changed:(fun cid e ->
      match parse_data_payload (fetch t ~what:(fun () -> "snapshot chunk") e) with
      | cid', version, data when Int.equal cid' cid && Int.equal version e.version -> changed cid data
      | _ -> tamper "snapshot chunk %d identity mismatch" cid
      | exception Tdb_pickle.Pickle.Error _ -> tamper "malformed snapshot chunk")
    ~removed

(* ------------------------------------------------------------------ *)
(* Creation, recovery, close                                           *)
(* ------------------------------------------------------------------ *)

let make_empty (cfg : Config.t) (sec : Security.t) counter store log : t =
  {
    cfg;
    sec;
    counter;
    store;
    log;
    map = Location_map.create ~fanout:cfg.Config.map_fanout ~depth:cfg.Config.map_depth;
    pending = Hashtbl.create 16;
    allocated = Hashtbl.create 16;
    cache = Chunk_cache.create ~budget:cfg.Config.chunk_cache_bytes;
    next_id = reserved_ids;
    seq = 0;
    chain = "";
    last_counter = 0L;
    epoch = 0;
    snapshots = [];
    next_snap_id = 1;
    cleaning = false;
    promotable = false;
    barrier_inflight = false;
    stats = fresh_stats ();
  }

(** Create a fresh database, overwriting whatever the store held. *)
let create ?(config = Config.default) ~(secret : Tdb_platform.Secret_store.t)
    ~(counter : Tdb_platform.One_way_counter.t) (store : Tdb_platform.Untrusted_store.t) : t =
  Config.validate config;
  let sec = Security.create config secret in
  let t = make_empty config sec counter store (Log.create store config) in
  t.last_counter <- Tdb_platform.One_way_counter.read counter;
  t.chain <- Security.mac sec "tdb-chain-genesis";
  (* Invalidate both anchor slots, then write the initial one. *)
  Tdb_platform.Untrusted_store.write store ~off:0 (String.make (2 * config.Config.anchor_slot_size) '\000');
  write_anchor t ~root:None;
  Security.start_session sec secret ~counter:t.last_counter ~epoch:t.epoch;
  t

exception Recovery_failed of string

type recovery = { replayed : int; dropped : int; counter_behind : bool }

(** Crash recovery and tamper checks, reading only, so a refused open and
    {!verify} change no evidence: the recovered store and what {!settle}
    repairs. @raise Recovery_failed without a valid anchor, on a layout
    mismatch or a shard's image; @raise Types.Tamper_detected on
    MAC/hash/counter violations. *)
let recover ?(config = Config.default) ~(secret : Tdb_platform.Secret_store.t) ~(counter : Tdb_platform.One_way_counter.t)
    (store : Tdb_platform.Untrusted_store.t) : t * recovery =
  Config.validate config;
  let sec = Security.create config secret in
  let anchor =
    match Anchor.read sec store ~slot_size:config.Config.anchor_slot_size with
    | Some a -> a
    | None -> raise (Recovery_failed "no valid anchor (store is empty, wiped, or tampered)")
  in
  (* the layout parameters the database was written with must match the
     configuration it is opened with *)
  if
    (not (Int.equal anchor.Anchor.segment_size config.Config.segment_size))
    || (not (Int.equal anchor.Anchor.map_fanout config.Config.map_fanout))
    || not (Int.equal anchor.Anchor.map_depth config.Config.map_depth)
  then
    raise
      (Recovery_failed
         (Printf.sprintf
            "layout mismatch: database uses segment_size=%d fanout=%d depth=%d, configuration says %d/%d/%d"
            anchor.Anchor.segment_size anchor.Anchor.map_fanout anchor.Anchor.map_depth
            config.Config.segment_size config.Config.map_fanout config.Config.map_depth));
  (* The log in recovery mode: tail from the anchor, usage rebuilt below. *)
  let usage = Hashtbl.create 64 in
  let t =
    make_empty config sec counter store
      (Log.of_recovery store config ~tail_seg:anchor.Anchor.tail_seg ~tail_off:anchor.Anchor.tail_off ~usage)
  in
  t.epoch <- anchor.Anchor.epoch;
  t.seq <- anchor.Anchor.seq;
  t.chain <- anchor.Anchor.chain;
  t.last_counter <- anchor.Anchor.counter;
  t.next_id <- anchor.Anchor.next_id;
  t.next_snap_id <- List.fold_left (fun acc (id, _, _) -> max acc (id + 1)) 1 anchor.Anchor.snapshots;
  (* Load the map root. *)
  (match anchor.Anchor.root with
  | None -> ()
  | Some root_e ->
      let root = Location_map.node_of_payload ~fanout:config.Config.map_fanout (fetch t ~what:(fun () -> "map root") root_e) in
      root.Location_map.disk <- Some root_e;
      t.map.Location_map.root <- root);
  (* Scan the residual log: verify the commit chain, collect commits. *)
  let commits = ref [] in
  let chain = ref t.chain in
  let expected_seq = ref (t.seq + 1) in
  let module P = Tdb_pickle.Pickle in
  (try
     Log.scan_chain t.log ~seg:anchor.Anchor.tail_seg ~off:(anchor.Anchor.tail_off)
       ~f:(fun kind (seg, poff) payload ->
         match kind with
         | Data_chunk | Map_node | Next_segment -> () (* applied via commit records *)
         | Commit -> (
             match
               (let plain = Security.unseal t.sec payload in
                let r = P.reader plain in
                let encoded = P.read_string r in
                let link = P.read_string r in
                P.expect_end r;
                if not (Tdb_crypto.Ct.equal_string link (Security.mac t.sec (!chain ^ encoded))) then None
                else
                  let body = decode_commit_body encoded in
                  if not (Int.equal body.c_seq !expected_seq) then None else Some (body, link))
             with
             | exception _ | None -> raise Exit
             | Some (body, link) ->
                 chain := link;
                 incr expected_seq;
                 let end_pos = (seg, poff + String.length payload) in
                 commits := (body, link, end_pos) :: !commits ))
   with Exit -> ());
  let commits = List.rev !commits in
  (* Validate the data each commit references, in order, truncating the
     residual log at the first commit that fails — that commit and
     everything after it are casualties of the crash, not evidence of
     tampering. Not only the literal final record can be torn: a bulk
     load splits one batch into a chain of nondurable sub-commits, and
     any of them may reference writes that never reached the media, since
     only the closing durable sync vouches for the data before it.
     Truncation cannot silently roll back a genuinely durable commit: its
     counter increment would leave the hardware counter ahead of the
     recovered state, which the replay check below rejects. *)
  let write_ok (_cid, (e : entry)) =
    match Log.read_payload t.log e with
    | stored -> (not t.sec.Security.enabled) || Tdb_crypto.Ct.equal_string e.hash (Security.label t.sec stored)
    | exception _ -> false
  in
  let rec keep = function
    | ((body, _, _) as c) :: rest when List.for_all write_ok body.c_writes -> c :: keep rest
    | _ -> []
  in
  let validated = keep commits in
  (* Keep the prefix up to the last durable commit. *)
  let durable (body, _, _) = match body.c_kind with App { durable } -> durable | Clean | Checkpoint -> false in
  let rec durable_prefix = function
    | [] -> []
    | c :: rest -> ( match durable_prefix rest with [] when not (durable c) -> [] | kept -> c :: kept)
  in
  let applied = durable_prefix validated in
  List.iter
    (fun (body, link, (seg, off)) ->
      List.iter
        (fun (cid, e) ->
          ignore (Location_map.set t.map (fetch t) cid e);
          t.next_id <- max t.next_id (cid + 1))
        body.c_writes;
      List.iter (fun cid -> ignore (Location_map.remove t.map (fetch t) cid)) body.c_deallocs;
      t.seq <- body.c_seq;
      t.chain <- link;
      t.last_counter <- (match body.c_kind with App { durable = true } -> body.c_counter | _ -> t.last_counter);
      t.log.Log.tail_seg <- seg;
      t.log.Log.tail_off <- off)
    applied;
  (* Replay-attack check against the one-way counter. hw = c_last is
     normal; hw = c_last - 1 means the last durable commit synced but the
     counter increment was lost to a crash — {!settle} repairs it by
     incrementing; anything else is tampering (in particular, hw > c_last
     means durable commits happened on a state that was later replayed). *)
  let hw = if t.sec.Security.enabled then Tdb_platform.One_way_counter.read counter else t.last_counter in
  if not (Int64.equal hw t.last_counter || Int64.equal (Int64.add hw 1L) t.last_counter) then
    tamper "one-way counter mismatch (counter=%Ld, database=%Ld): %s" hw t.last_counter
      (if hw > t.last_counter then "replay of stale state detected" else "counter rollback detected");
  (* Rebuild usage from the recovered map: every data entry and every map
     node copy the anchor reaches, including nodes replay dirtied (open's
     checkpoint retires those once the new anchor lands). *)
  let charge e = Hashtbl.replace usage e.seg (Option.value ~default:0 (Hashtbl.find_opt usage e.seg) + Log.record_space e.len) in
  Location_map.iter t.map (fetch t) ~data:(fun _ e -> charge e) ~node:charge;
  (* Re-pin snapshot segments. *)
  t.snapshots <-
    List.map
      (fun (id, root, sseq) ->
        let segs = tree_segments t root in
        List.iter (fun s -> Log.pin t.log s) segs;
        (id, { snap_root = root; snap_seq = sseq; snap_segs = segs }))
      anchor.Anchor.snapshots;
  (* Reserved chunk 2 held a shard router's decision table: a store that
     was written as one part of a wider database cannot be served alone. *)
  if Option.is_some (Location_map.find t.map (fetch t) 2) then
    raise (Recovery_failed "store was written as one shard of a sharded database");
  let replayed = List.length applied in
  (t, { replayed; dropped = List.length commits - replayed; counter_behind = not (Int64.equal hw t.last_counter) })

(** The writes that take a recovered store into service, in order: extend
    the store to its segments, repair a counter one behind, free what
    recovery found empty, start the sealing session, checkpoint. *)
let settle t ~(secret : Tdb_platform.Secret_store.t) (r : recovery) : unit =
  Log.ensure_store_size t.log;
  if r.counter_behind then ignore (Tdb_platform.One_way_counter.increment t.counter);
  Log.barrier t.log;
  (* The session starts before the first seal: the map nodes of the
     checkpoint below, whose anchor lands at epoch [t.epoch + 1] before the
     application can seal anything. *)
  Security.start_session t.sec secret ~counter:t.last_counter ~epoch:(t.epoch + 1);
  checkpoint t

(** Open an existing database: {!recover}, then {!settle}. *)
let open_existing ?(config = Config.default) ~(secret : Tdb_platform.Secret_store.t)
    ~(counter : Tdb_platform.One_way_counter.t) (store : Tdb_platform.Untrusted_store.t) : t =
  let t, r = recover ~config ~secret ~counter store in
  settle t ~secret r;
  t

(** Checkpoint and sync; the database can be reopened with
    {!open_existing}. *)
let close t : unit =
  if Hashtbl.length t.pending > 0 then abort_batch t;
  checkpoint t;
  Tdb_platform.Untrusted_store.close t.store

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let stats t =
  let hits, misses, evictions = Chunk_cache.stats t.cache in
  t.stats.cache_hits <- hits;
  t.stats.cache_misses <- misses;
  t.stats.cache_evictions <- evictions;
  t.stats.live_segments <- Log.live_segments t.log;
  t.stats

let cache_resident t = Chunk_cache.resident t.cache
let cache_bytes t = Chunk_cache.total_size t.cache
let cache_budget t = Chunk_cache.budget t.cache

let set_cache_budget t b =
  if b < 0 then invalid_arg "Chunk_store.set_cache_budget: negative";
  Chunk_cache.set_budget t.cache b

let counter_value t = t.last_counter
let commit_seq t = t.seq

(** Chunk ids present in the last committed location map (pending batch
    writes excluded), in ascending id order — the committed footprint a
    full backup captures and a replica ingest must reconcile against. *)
let live_ids t : chunk_id list =
  let acc = ref [] in
  Location_map.iter t.map (fetch t) ~data:(fun cid _ -> acc := cid :: !acc) ~node:(fun _ -> ());
  List.sort Int.compare !acc

(** {!recover} plus a validated read of every live chunk, lowest id first:
    the verdict open would reach, and the chunk count, writing nothing. *)
let verify ?(config = Config.default) ~(secret : Tdb_platform.Secret_store.t)
    ~(counter : Tdb_platform.One_way_counter.t) (store : Tdb_platform.Untrusted_store.t) : recovery * int =
  let t, r = recover ~config ~secret ~counter store in
  let ids = live_ids t in
  List.iter (fun cid -> ignore (read t cid)) ids;
  (r, List.length ids)

let utilization t = Log.utilization t.log
let live_bytes t = Log.live_bytes t.log
let capacity t = Log.capacity t.log
let store_size t = Tdb_platform.Untrusted_store.size t.store
let config t = t.cfg

(** Explicit idle-time cleaning (paper: "some of the database
    reorganization can be deferred until idle time"). Checkpoints first so
    the whole log (minus the fresh tail) is eligible. *)
let clean ?max_segments t =
  checkpoint t;
  clean_pass ?max_segments t

let metrics t : Metrics.t =
  let st = stats t in
  let ratio a b = Metrics.Float (if b > 0 then float_of_int a /. float_of_int b else 0.) in
  let lookups = st.cache_hits + st.cache_misses in
  let fresh = st.bytes_data - st.bytes_relocated in
  Metrics.
    [
      ("store.commits", Int st.commits);
      ("store.durable_commits", Int st.durable_commits);
      ("store.checkpoints", Int st.checkpoints);
      ("store.counter", Int (Int64.to_int (counter_value t)));
      ("store.live_bytes", Int (live_bytes t));
      ("store.capacity_bytes", Int (capacity t));
      ("store.utilization", Float (utilization t));
      ("store.size_bytes", Int (store_size t));
      ("store.security", Text (if t.sec.Security.enabled then "on" else "off"));
      ("chunk_cache.hits", Int st.cache_hits);
      ("chunk_cache.misses", Int st.cache_misses);
      ("chunk_cache.evictions", Int st.cache_evictions);
      ("chunk_cache.hit_rate", ratio st.cache_hits lookups);
      ("chunk_cache.bytes", Int (cache_bytes t));
      ("chunk_cache.budget_bytes", Int (cache_budget t));
      ("chunk_cache.resident", Int (cache_resident t));
      ("cleaner.passes", Int st.clean_passes);
      ("cleaner.segments_cleaned", Int st.segments_cleaned);
      ("cleaner.chunks_relocated", Int st.chunks_relocated);
      ("cleaner.bytes_relocated", Int st.bytes_relocated);
      ("cleaner.bytes_data", Int st.bytes_data);
      ("cleaner.write_amp", ratio st.bytes_relocated fresh);
      ("cleaner.live_segments", Int st.live_segments);
    ]
  @ Security.metrics t.sec
