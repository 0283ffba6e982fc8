(** The log: segment allocation, tail appends, usage accounting.

    The chunk store is log-structured (paper Section 3.2.1): the log is the
    *only* storage; records are appended at the tail and never updated in
    place. The store is divided into fixed-size segments; the tail fills one
    segment, then chains to the next free one via a [Next_segment] marker so
    recovery can follow the residual log.

    Usage accounting tracks live payload bytes per segment. A segment whose
    usage drops to zero becomes reusable only at the next *barrier* (durable
    commit or checkpoint): before that, its garbage may still be needed — a
    chunk version obsoleted by a nondurable commit must survive until the
    commit becomes durable (paper Section 3.2.2), and records written since
    the last checkpoint form the residual log that recovery replays. *)

open Types

let header_size = 6 (* magic, kind, 4-byte length *)
let magic_byte = '\xC5'
let marker_size = header_size + 4 (* Next_segment record *)

(** One contiguous buffered byte range at the tail, not yet written to the
    store. [run_frags] is kept newest-first; each element stays a separate
    fragment so the store's [writev] (and the fault harness interposing on
    it) sees every record edge as a tear boundary. *)
type run = {
  run_off : int; (* absolute store offset of the run's first byte *)
  mutable run_frags : string list; (* reversed: newest fragment first *)
  mutable run_len : int;
}

type t = {
  store : Tdb_platform.Untrusted_store.t;
  cfg : Config.t;
  log_base : int;
  mutable nsegments : int;
  usage : (int, int) Hashtbl.t; (* seg -> live bytes (header + payload) *)
  mutable free : int list;
  mutable nfree : int; (* List.length free, maintained *)
  pinned : (int, int) Hashtbl.t; (* seg -> pin count, held by snapshots *)
  residual : (int, unit) Hashtbl.t; (* segments written since last checkpoint *)
  mutable residual_bytes : int; (* bytes appended since last checkpoint *)
  mutable tail_seg : int;
  mutable tail_off : int; (* offset within tail segment *)
  mutable tail_buf : run list; (* buffered appends, newest run first *)
  mutable held : (int, unit) Hashtbl.t option; (* segments emptied since [hold] *)
  mutable candidates : int list; (* segments that may have turned freeable since the last barrier *)
}

let seg_start t seg = t.log_base + (seg * t.cfg.Config.segment_size)
let segment_size t = t.cfg.Config.segment_size
let usage_of t seg = Option.value ~default:0 (Hashtbl.find_opt t.usage seg)
let capacity t = t.nsegments * segment_size t
let live_bytes t = Hashtbl.fold (fun _ v acc -> acc + v) t.usage 0
let live_segments t = Hashtbl.length t.usage (* entries are dropped at zero *)
let utilization t = float_of_int (live_bytes t) /. float_of_int (max 1 (capacity t))
let is_pinned t seg = match Hashtbl.find_opt t.pinned seg with Some n -> n > 0 | None -> false
let free_count t = t.nfree
let tail_pos t = (t.tail_seg, t.tail_off)
let nsegments t = t.nsegments

(* A segment turns freeable only through an event that names it: its usage
   reaches zero, its last pin goes, or the checkpoint ends its residual
   window (which also covers a segment the tail left, since the tail marks
   every segment it writes residual). Each event records the segment here,
   and a barrier visits these alone; one the hold kept stays for the next. *)
let note_candidate t seg = t.candidates <- seg :: t.candidates

(* ------------------------------------------------------------------ *)
(* Tail write buffer                                                   *)
(* ------------------------------------------------------------------ *)

(** Buffer [frag] for writing at absolute offset [off]: extends the newest
    run when contiguous with it, else opens a new run (appends are
    monotonic within a segment, so at most one run per segment visited
    since the last flush). *)
let buf_push t ~off frag =
  match t.tail_buf with
  | r :: _ when Int.equal (r.run_off + r.run_len) off ->
      r.run_frags <- frag :: r.run_frags;
      r.run_len <- r.run_len + String.length frag
  | _ -> t.tail_buf <- { run_off = off; run_frags = [ frag ]; run_len = String.length frag } :: t.tail_buf

(** Write the buffered tail to the store, one vectored write per run. *)
let flush t =
  let runs = List.rev t.tail_buf in
  t.tail_buf <- [];
  List.iter (fun r -> Tdb_platform.Untrusted_store.writev t.store ~off:r.run_off (List.rev r.run_frags)) runs

let buf_overlaps t ~lo ~hi =
  List.exists (fun r -> r.run_off < hi && lo < r.run_off + r.run_len) t.tail_buf

(* Reads must see buffered appends: flush first if the requested range
   overlaps a pending run (cheap — the buffer rarely holds more than a few
   runs, and hot reads target cold, already-flushed segments). *)
let prepare_read t ~lo ~hi = if buf_overlaps t ~lo ~hi then flush t

(* [Untrusted_store.read] hands back a freshly allocated buffer with no
   other owner, so freezing it in place is sound: no one mutates it after
   this point. Saves a full copy on every record read. *)
let string_of_read t ~off ~len : string =
  let size = Tdb_platform.Untrusted_store.size t.store in
  let b =
    if off + len <= size then Tdb_platform.Untrusted_store.read t.store ~off ~len
    else begin
      (* past a truncated store's end: zeros, as [ensure_store_size]
         adds inside its segments, so read-only recovery sees what open
         sees once it has extended the store *)
      let b = Bytes.make len '\000' in
      if size > off then Bytes.blit (Tdb_platform.Untrusted_store.read t.store ~off ~len:(size - off)) 0 b 0 (size - off);
      b
    end
  in
  Bytes.unsafe_to_string b

(* Where record parsing stops: the end of the segments, or of a longer store. *)
let store_end t = max (Tdb_platform.Untrusted_store.size t.store) (seg_start t t.nsegments)

let pin t seg = Hashtbl.replace t.pinned seg (1 + Option.value ~default:0 (Hashtbl.find_opt t.pinned seg))

let unpin t seg =
  match Hashtbl.find_opt t.pinned seg with
  | Some 1 ->
      Hashtbl.remove t.pinned seg;
      note_candidate t seg
  | Some n when n > 1 -> Hashtbl.replace t.pinned seg (n - 1)
  | _ -> invalid_arg "Log.unpin: not pinned"

let ensure_store_size t =
  let need = t.log_base + (t.nsegments * segment_size t) in
  if Tdb_platform.Untrusted_store.size t.store < need then Tdb_platform.Untrusted_store.set_size t.store need

(** Reconstruct log state after recovery: the usage table is rebuilt by the
    chunk store (walking the recovered map), then it calls this to derive
    the free list. Fresh recovery counts as a barrier, and every segment
    starts as a candidate, so that first barrier scans them all. Writes
    nothing: a store shorter than its segments reads as zero-extended
    until {!ensure_store_size} extends it. *)
let of_recovery (store : Tdb_platform.Untrusted_store.t) (cfg : Config.t) ~(tail_seg : int) ~(tail_off : int)
    ~(usage : (int, int) Hashtbl.t) : t =
  let log_base = 2 * cfg.Config.anchor_slot_size in
  let store_size = Tdb_platform.Untrusted_store.size store in
  let nsegments = max cfg.Config.initial_segments ((store_size - log_base) / cfg.Config.segment_size) in
  {
    store;
    cfg;
    log_base;
    nsegments;
    usage;
    free = [];
    nfree = 0;
    pinned = Hashtbl.create 8;
    residual = Hashtbl.create 16;
    residual_bytes = 0;
    tail_seg;
    tail_off;
    tail_buf = [];
    held = None;
    candidates = List.init nsegments Fun.id;
  }

let create (store : Tdb_platform.Untrusted_store.t) (cfg : Config.t) : t =
  let n = cfg.Config.initial_segments in
  let t =
    { (of_recovery store cfg ~tail_seg:0 ~tail_off:0 ~usage:(Hashtbl.create 64)) with
      nsegments = n; free = List.init (n - 1) (fun i -> i + 1); nfree = n - 1; candidates = [] }
  in
  ensure_store_size t;
  t

(** Keep segments emptied from now on out of the next barrier's free
    list: a staged barrier's record is already in the log, and the
    commits landing after it may obsolete versions that recovery to the
    barrier's prefix still reads. They free at the barrier after. *)
let hold t = t.held <- Some (Hashtbl.create 8)

(** Promote empty segments to the free list — callable only at barriers
    (durable commit, checkpoint, recovery); see the module comment. Only
    the candidates noted since the last barrier are visited. A listed free
    segment stays freeable until an append takes it, and a candidate that
    turns freeable was not free (it had usage, a pin or a residual mark),
    so merging the two equals a full rescan, ascending as before.
    Trailing free segments are handed back to the untrusted store: the
    paper notes the chunk store "can increase or decrease the space
    allocated for storage" (Section 3.2.1), and shrinking is what lets the
    database settle at the configured utilization. *)
let barrier t =
  (* Barriers follow the durability point; anything still buffered belongs
     to the log and must land before segment accounting is recomputed. *)
  flush t;
  let freeable seg =
    seg < t.nsegments
    && (not (Int.equal seg t.tail_seg))
    && usage_of t seg = 0
    && (not (is_pinned t seg))
    && not (Hashtbl.mem t.residual seg)
  in
  (* A held segment stays a candidate for the barrier after this one. *)
  let kept, visit =
    match t.held with Some h -> List.partition (Hashtbl.mem h) t.candidates | None -> ([], t.candidates)
  in
  t.held <- None;
  t.candidates <- kept;
  (match List.sort_uniq Int.compare (List.filter freeable visit) with
  | [] -> ()
  | news ->
      t.free <- List.merge Int.compare t.free news;
      t.nfree <- t.nfree + List.length news);
  (* Trailing free segments sit at the end of the ascending list: shrink
     drops them while they coincide with the last segment, keeping the
     cleaner's copy reserve. *)
  let reserve = (2 * t.cfg.Config.clean_batch) + 6 in
  let can_shrink () = t.nsegments > t.cfg.Config.initial_segments && t.nfree > reserve in
  let rec last = function [ l ] -> l | _ :: rest -> last rest | [] -> -1 in
  if can_shrink () && Int.equal (last t.free) (t.nsegments - 1) then begin
    let rec drop_trailing = function
      | l :: rest when Int.equal l (t.nsegments - 1) && can_shrink () ->
          t.nsegments <- t.nsegments - 1;
          t.nfree <- t.nfree - 1;
          drop_trailing rest
      | fl -> fl
    in
    t.free <- List.rev (drop_trailing (List.rev t.free))
  end;
  Tdb_platform.Untrusted_store.set_size t.store (t.log_base + (t.nsegments * segment_size t))

(** Checkpoint completion: the residual log is no longer needed. *)
let end_checkpoint t =
  Hashtbl.iter (fun seg () -> note_candidate t seg) t.residual;
  Hashtbl.reset t.residual;
  t.residual_bytes <- 0;
  barrier t

let residual_bytes t = t.residual_bytes

let grow t ~(segments : int) =
  let first = t.nsegments in
  t.nsegments <- t.nsegments + segments;
  ensure_store_size t;
  t.free <- t.free @ List.init segments (fun i -> first + i);
  t.nfree <- t.nfree + segments

(** Record that [len] live bytes at [seg] became garbage. *)
let obsolete_bytes t ~(seg : int) ~(payload_len : int) =
  let v = usage_of t seg - (header_size + payload_len) in
  if v < 0 then failwith (Printf.sprintf "Log: usage underflow on segment %d" seg);
  if v = 0 then begin
    Hashtbl.remove t.usage seg;
    note_candidate t seg;
    Option.iter (fun h -> Hashtbl.replace h seg ()) t.held
  end
  else Hashtbl.replace t.usage seg v

let obsolete_entry t (e : entry) = obsolete_bytes t ~seg:e.seg ~payload_len:e.len

let header_string (kind : record_kind) (len : int) : string =
  let h = Bytes.create header_size in
  Bytes.set h 0 magic_byte;
  Bytes.set h 1 (Char.chr (kind_to_byte kind));
  Bytes.set h 2 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set h 3 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set h 4 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set h 5 (Char.chr (len land 0xff));
  (* freshly built, uniquely owned *)
  Bytes.unsafe_to_string h

(** How many bytes of log space an [n]-byte payload consumes. *)
let record_space n = header_size + n

exception Need_segment

(** Append a record at the tail. The caller must have ensured free space
    (via {!Chunk_store}'s clean-or-grow policy); if the free list runs dry
    anyway, raises [Need_segment]. Returns the *payload* position.

    The record is only {e buffered}: header, payload and chain markers
    accumulate in the tail buffer and reach the store at the next {!flush}
    as one vectored write per contiguous run. The payload string is
    referenced, not copied.

    [live] records (chunk data, map nodes) are charged to the segment's
    usage; transient records (commits) are not — they die with their
    segment once the residual window has passed. *)
let append ?(live = true) t (kind : record_kind) (sealed : string) : int * int =
  let len = String.length sealed in
  if record_space len + marker_size > segment_size t then
    invalid_arg (Printf.sprintf "Log.append: record of %d bytes exceeds segment size" len);
  (* Switch segments if this record would not leave room for a marker. *)
  if t.tail_off + record_space len + marker_size > segment_size t then begin
    match t.free with
    | [] -> raise Need_segment
    | next :: rest ->
        t.free <- rest;
        t.nfree <- t.nfree - 1;
        (* Chain: Next_segment marker holding the successor's id. *)
        let m = Bytes.create 4 in
        Bytes.set m 0 (Char.chr ((next lsr 24) land 0xff));
        Bytes.set m 1 (Char.chr ((next lsr 16) land 0xff));
        Bytes.set m 2 (Char.chr ((next lsr 8) land 0xff));
        Bytes.set m 3 (Char.chr (next land 0xff));
        buf_push t ~off:(seg_start t t.tail_seg + t.tail_off) (header_string Next_segment 4);
        buf_push t
          ~off:(seg_start t t.tail_seg + t.tail_off + header_size)
          ((* freshly built, uniquely owned *) Bytes.unsafe_to_string m);
        Hashtbl.replace t.residual t.tail_seg ();
        t.tail_seg <- next;
        t.tail_off <- 0
  end;
  let payload_off_abs = seg_start t t.tail_seg + t.tail_off + header_size in
  buf_push t ~off:(seg_start t t.tail_seg + t.tail_off) (header_string kind len);
  buf_push t ~off:payload_off_abs sealed;
  let pos = (t.tail_seg, t.tail_off + header_size) in
  t.tail_off <- t.tail_off + record_space len;
  if live then Hashtbl.replace t.usage t.tail_seg (usage_of t t.tail_seg + record_space len);
  Hashtbl.replace t.residual t.tail_seg ();
  t.residual_bytes <- t.residual_bytes + record_space len;
  pos

(** Read the payload bytes an entry points at (no validation here). *)
let read_payload t (e : entry) : string =
  let off = seg_start t e.seg + e.off in
  prepare_read t ~lo:off ~hi:(off + e.len);
  string_of_read t ~off ~len:e.len

(* Decode the record header at [off] of [img], whose first [limit] bytes
   are readable log: [Some (kind, len)] when a header with a known magic
   byte and kind is there and its [len]-byte payload ends by [limit],
   [None] otherwise. Runs on untrusted bytes, before any MAC check. *)
let decode_header (img : string) ~(off : int) ~(limit : int) : (record_kind * int) option =
  if off + header_size > limit || not (Char.equal img.[off] magic_byte) then None
  else
    match kind_of_byte (Char.code img.[off + 1]) with
    | exception Invalid_argument _ -> None
    | kind ->
        let len =
          (Char.code img.[off + 2] lsl 24) lor (Char.code img.[off + 3] lsl 16)
          lor (Char.code img.[off + 4] lsl 8) lor Char.code img.[off + 5]
        in
        if len < 0 || off + header_size + len > limit then None else Some (kind, len)

(* Parse one record at [(seg, off)] (header offset): [(kind, payload_off,
   payload)], or [None] if no valid record starts there. The record must
   end within both the segment and the store. *)
let parse_record t ~(seg : int) ~(off : int) : (record_kind * int * string) option =
  if off + header_size > segment_size t then None
  else begin
    let abs = seg_start t seg + off in
    (* guard the whole rest of the segment: header + payload in one check *)
    prepare_read t ~lo:abs ~hi:(seg_start t seg + segment_size t);
    let limit = min (segment_size t - off) (store_end t - abs) in
    if header_size > limit then None
    else
      match decode_header (string_of_read t ~off:abs ~len:header_size) ~off:0 ~limit with
      | None -> None
      | Some (kind, len) -> Some (kind, off + header_size, string_of_read t ~off:(abs + header_size) ~len)
  end

(** Scan all parseable records of one segment from its start: used by the
    cleaner. Reads the whole segment in one I/O (a cleaner reads cold
    segments sequentially), then parses in memory. Stops at the first
    invalid header. *)
let scan_segment t (seg : int) : (record_kind * int * string) list =
  let size = segment_size t in
  let base = seg_start t seg in
  prepare_read t ~lo:base ~hi:(base + size);
  let avail = max 0 (min size (store_end t - base)) in
  if avail < header_size then []
  else begin
    let img = string_of_read t ~off:base ~len:avail in
    let rec go off acc =
      match decode_header img ~off ~limit:avail with
      | None -> List.rev acc
      | Some (kind, len) ->
          go (off + header_size + len) ((kind, off + header_size, String.sub img (off + header_size) len) :: acc)
    in
    go 0 []
  end

(** Fold records following the tail chain from [(seg, off)]: recovery's
    residual-log scan. [f] receives the record kind, its payload position
    and payload; folding stops at the first invalid record. Every segment
    visited joins the residual set: a crash before the next checkpoint
    replays the same chain. *)
let scan_chain t ~(seg : int) ~(off : int) ~(f : record_kind -> int * int -> string -> unit) : unit =
  (* A segment joins the tail chain at most once between checkpoints, so a
     marker leading to an already-visited segment is stale debris from a
     previous incarnation of that segment (a crash can preserve old bytes
     that still parse) — following it would loop forever. Treat it like
     any other invalid record: the chain ends there and recovery's
     durable-prefix rule truncates accordingly. *)
  let visited = Array.make t.nsegments false in
  let visit s =
    visited.(s) <- true;
    Hashtbl.replace t.residual s ()
  in
  let seg = ref seg and off = ref off and stop = ref false in
  if !seg >= 0 && !seg < t.nsegments then visit !seg;
  while not !stop do
    match parse_record t ~seg:!seg ~off:!off with
    | None -> stop := true
    | Some (Next_segment, _, payload) ->
        if String.length payload <> 4 then stop := true
        else begin
          let next =
            (Char.code payload.[0] lsl 24) lor (Char.code payload.[1] lsl 16) lor (Char.code payload.[2] lsl 8)
            lor Char.code payload.[3]
          in
          if next < 0 || next >= t.nsegments || visited.(next) then stop := true
          else begin
            visit next;
            seg := next;
            off := 0
          end
        end
    | Some (kind, poff, payload) ->
        f kind (!seg, poff) payload;
        off := poff + String.length payload
  done

(** Segments eligible for cleaning, least-utilized first: each pass frees
    the most space for the fewest relocations. The tail, pinned segments
    and residual segments are never candidates. *)
let clean_candidates t : int list =
  let all = ref [] in
  for seg = 0 to t.nsegments - 1 do
    let u = usage_of t seg in
    if (not (Int.equal seg t.tail_seg)) && u > 0 && (not (is_pinned t seg)) && not (Hashtbl.mem t.residual seg) then
      all := (u, seg) :: !all
  done;
  List.map snd
    (List.sort
       (fun (u1, s1) (u2, s2) ->
         match Int.compare u1 u2 with 0 -> Int.compare s1 s2 | c -> c)
       !all)
