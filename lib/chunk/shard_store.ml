(** Shard router over [N] independent chunk stores, with a tamper-evident
    cross-shard two-phase commit. See the interface for the protocol and
    the trust argument; everything here is built out of ordinary chunk
    operations, so each shard's existing sealing, Merkle labelling,
    anchor MAC and one-way counter protect the 2PC records too. *)

open Types
module P = Tdb_pickle.Pickle

(* Per-shard local reserved ids the router owns (Types.reserved_ids
   documents the full reserved range). *)
let dtab_cid = 2 (* decision table: transactions this shard coordinated *)
let ptab_cid = 3 (* participant status: staged prepare + high-water marks *)

type op = Rwrite of string | Rdealloc

(* A decision-table entry: transaction [gtid] (coordinator-local,
   monotone) over [parts], MAC'd under the device secret and chained to
   the previous decision via [prev]. *)
type dentry = { e_gtid : int; e_parts : int list; e_prev : string; e_mac : string }

type dtab = {
  mutable d_chain : string; (* MAC of the most recently appended entry *)
  mutable d_next : int; (* next gtid this coordinator will assign *)
  mutable d_entries : dentry list; (* in-flight/uncleaned decisions, ascending *)
}

type ptab = {
  mutable p_staged : (int * int * int list) option; (* coord, gtid, redo piece cids *)
  p_hw : (int, int) Hashtbl.t; (* coordinator shard -> highest gtid applied *)
}

type t = {
  n : int;
  cfg : Config.t; (* the caller's config (undivided cache budget) *)
  shards : Chunk_store.t array;
  sec : Security.t option; (* decision-entry MAC context; None at n = 1 *)
  mirror : (chunk_id, op) Hashtbl.t array; (* per-shard copy of the open batch (n > 1) *)
  dirty : bool array; (* shard has nondurable commits since its last durable point *)
  dtabs : dtab array;
  ptabs : ptab array;
  barriers : int array; (* durable barriers run, per shard *)
  mutable rr : int; (* round-robin cursor for unpinned allocations *)
  mutable txn_commits : int; (* router-level commits (a 2PC counts once) *)
  mutable cross_commits : int; (* commits spanning > 1 shard *)
  mutable hook : (int -> bool) option; (* prepare veto hook (tests) *)
}

exception Vetoed of int

(* ------------------------------------------------------------------ *)
(* Global chunk-id routing                                             *)
(* ------------------------------------------------------------------ *)

let shard_of t g = if Int.equal t.n 1 || g < reserved_ids then 0 else (g - reserved_ids) mod t.n
let local_of t g = if Int.equal t.n 1 || g < reserved_ids then g else ((g - reserved_ids) / t.n) + reserved_ids

let global_of t s l =
  if Int.equal t.n 1 then l
  else if l < reserved_ids then l (* only reachable for shard 0 *)
  else ((l - reserved_ids) * t.n) + s + reserved_ids

(* ------------------------------------------------------------------ *)
(* Persistent 2PC record encodings                                     *)
(* ------------------------------------------------------------------ *)

let encode_dtab ~n (dt : dtab) : string =
  let w = P.writer () in
  P.byte w 1;
  P.uint w n;
  P.string w dt.d_chain;
  P.uint w dt.d_next;
  P.list w
    (fun w e ->
      P.uint w e.e_gtid;
      P.list w P.uint e.e_parts;
      P.string w e.e_prev;
      P.string w e.e_mac)
    dt.d_entries;
  P.contents w

let decode_dtab (s : string) : int * dtab =
  let r = P.reader s in
  (match P.read_byte r with 1 -> () | v -> tamper "decision table version %d" v);
  let n = P.read_uint r in
  let chain = P.read_string r in
  let next = P.read_uint r in
  let entries =
    P.read_list r (fun r ->
        let g = P.read_uint r in
        let parts = P.read_list r P.read_uint in
        let prev = P.read_string r in
        let mac = P.read_string r in
        { e_gtid = g; e_parts = parts; e_prev = prev; e_mac = mac })
  in
  P.expect_end r;
  (n, { d_chain = chain; d_next = next; d_entries = entries })

let encode_ptab (pt : ptab) : string =
  let w = P.writer () in
  P.byte w 1;
  P.option w
    (fun w (c, g, cids) ->
      P.uint w c;
      P.uint w g;
      P.list w P.uint cids)
    pt.p_staged;
  let hw = Hashtbl.fold (fun c g acc -> (c, g) :: acc) pt.p_hw [] in
  let hw = List.sort (fun (a, _) (b, _) -> Int.compare a b) hw in
  P.list w
    (fun w (c, g) ->
      P.uint w c;
      P.uint w g)
    hw;
  P.contents w

let decode_ptab (s : string) : ptab =
  let r = P.reader s in
  (match P.read_byte r with 1 -> () | v -> tamper "participant status version %d" v);
  let staged =
    P.read_option r (fun r ->
        let c = P.read_uint r in
        let g = P.read_uint r in
        let cids = P.read_list r P.read_uint in
        (c, g, cids))
  in
  let hw = Hashtbl.create 4 in
  List.iter (fun (c, g) -> Hashtbl.replace hw c g)
    (P.read_list r (fun r ->
         let c = P.read_uint r in
         let g = P.read_uint r in
         (c, g)));
  P.expect_end r;
  { p_staged = staged; p_hw = hw }

(* Redo payload: the batch's net per-chunk operations, sorted by local id
   for a deterministic image. *)
let encode_redo (ops : (chunk_id, op) Hashtbl.t) : string =
  let w = P.writer () in
  P.byte w 1;
  let l = Hashtbl.fold (fun cid op acc -> (cid, op) :: acc) ops [] in
  let l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l in
  P.list w
    (fun w (cid, op) ->
      P.uint w cid;
      match op with
      | Rwrite d ->
          P.byte w 0;
          P.string w d
      | Rdealloc -> P.byte w 1)
    l;
  P.contents w

let decode_redo (s : string) : (chunk_id * op) list =
  let r = P.reader s in
  (match P.read_byte r with 1 -> () | v -> tamper "redo payload version %d" v);
  let l =
    P.read_list r (fun r ->
        let cid = P.read_uint r in
        match P.read_byte r with
        | 0 -> (cid, Rwrite (P.read_string r))
        | 1 -> (cid, Rdealloc)
        | b -> tamper "redo op tag %d" b)
  in
  P.expect_end r;
  l

let entry_mac t ~coord ~gtid ~parts ~prev : string =
  match t.sec with
  | None -> ""
  | Some sec ->
      let w = P.writer () in
      P.string w "tdb-2pc";
      P.uint w coord;
      P.uint w gtid;
      P.list w P.uint parts;
      P.string w prev;
      Security.mac sec (P.contents w)

let check_entry_mac t ~coord (e : dentry) : unit =
  match t.sec with
  | None -> ()
  | Some sec ->
      let w = P.writer () in
      P.string w "tdb-2pc";
      P.uint w coord;
      P.uint w e.e_gtid;
      P.list w P.uint e.e_parts;
      P.string w e.e_prev;
      if not (Security.check_mac sec ~expected:e.e_mac (P.contents w) ~what:"2pc decision entry") then
        tamper "cross-shard decision entry failed its MAC (coordinator %d, gtid %d)" coord e.e_gtid

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let shard_config (cfg : Config.t) n =
  if Int.equal n 1 then cfg else { cfg with Config.chunk_cache_bytes = cfg.Config.chunk_cache_bytes / n }

let make ~cfg ~sec shards =
  let n = Array.length shards in
  {
    n;
    cfg;
    shards;
    sec;
    mirror = Array.init n (fun _ -> Hashtbl.create 16);
    dirty = Array.make n false;
    dtabs = Array.init n (fun _ -> { d_chain = ""; d_next = 1; d_entries = [] });
    ptabs = Array.init n (fun _ -> { p_staged = None; p_hw = Hashtbl.create 4 });
    barriers = Array.make n 0;
    rr = 0;
    txn_commits = 0;
    cross_commits = 0;
    hook = None;
  }

let read_reserved sh cid =
  match Chunk_store.read sh cid with
  | s -> Some s
  | exception Not_written _ -> None

let persist_dtab t s ~durable =
  Chunk_store.write t.shards.(s) dtab_cid (encode_dtab ~n:t.n t.dtabs.(s));
  Chunk_store.commit ~durable t.shards.(s);
  if not durable then t.dirty.(s) <- true

let wrap (cs : Chunk_store.t) : t = make ~cfg:(Chunk_store.config cs) ~sec:None [| cs |]

let create ?(config = Config.default) ~secret ~counters stores : t =
  let n = config.Config.shards in
  if not (Int.equal (Array.length stores) n && Int.equal (Array.length counters) n) then
    invalid_arg "Shard_store.create: config.shards disagrees with the stores/counters supplied";
  let scfg = shard_config config n in
  let shards = Array.init n (fun i -> Chunk_store.create ~config:scfg ~secret ~counter:counters.(i) stores.(i)) in
  let sec = if n > 1 then Some (Security.create config secret) else None in
  let t = make ~cfg:config ~sec shards in
  if n > 1 then
    (* every shard self-identifies its width, so opening a shard file
       standalone (or at the wrong width) is rejected up front *)
    Array.iteri (fun s _ -> persist_dtab t s ~durable:true) t.shards;
  t

(* --- recovery-time resolution of in-doubt cross-shard transactions --- *)

let replay_redo sh (ops : (chunk_id * op) list) : unit =
  List.iter
    (fun (cid, op) ->
      match op with
      | Rwrite d -> Chunk_store.restore_chunk sh cid d
      | Rdealloc -> (
          (* replay is idempotent: a dealloc target may already be gone *)
          match Chunk_store.deallocate sh cid with
          | () -> ()
          | exception Not_allocated _ -> ()))
    ops

let persist_ptab_shard t p ~also_dealloc =
  let sh = t.shards.(p) in
  List.iter (fun cid -> Chunk_store.deallocate sh cid) also_dealloc;
  Chunk_store.write sh ptab_cid (encode_ptab t.ptabs.(p));
  Chunk_store.commit ~durable:true sh;
  t.dirty.(p) <- false

(* Roll a decided transaction forward on participant [p] from its durable
   staging (recovery path: the in-memory mirror is gone). *)
let roll_forward t ~coord ~(e : dentry) p =
  let pt = t.ptabs.(p) in
  match pt.p_staged with
  | Some (c, g, cids) when Int.equal c coord && Int.equal g e.e_gtid ->
      let sh = t.shards.(p) in
      let payload = String.concat "" (List.map (fun cid -> Chunk_store.read sh cid) cids) in
      replay_redo sh (decode_redo payload);
      pt.p_staged <- None;
      Hashtbl.replace pt.p_hw coord e.e_gtid;
      persist_ptab_shard t p ~also_dealloc:cids
  | _ ->
      let hw = Option.value ~default:0 (Hashtbl.find_opt pt.p_hw coord) in
      if hw < e.e_gtid then
        tamper
          "participant shard %d lost its durable prepare for decided transaction %d/%d (applied high-water %d)"
          p coord e.e_gtid hw

let resolve_in_doubt t =
  (* 1. verify every surviving decision entry's MAC, and catch a
     coordinator rolled back below a participant's high-water mark *)
  Array.iteri
    (fun c dt -> List.iter (fun e -> check_entry_mac t ~coord:c e) dt.d_entries)
    t.dtabs;
  Array.iteri
    (fun p pt ->
      Hashtbl.iter
        (fun c g ->
          if g >= t.dtabs.(c).d_next then
            tamper "coordinator shard %d rolled back: participant %d already applied its gtid %d" c p g)
        pt.p_hw)
    t.ptabs;
  (* 2. roll decided transactions forward *)
  Array.iteri
    (fun c dt ->
      List.iter (fun e -> List.iter (roll_forward t ~coord:c ~e) e.e_parts) dt.d_entries;
      if dt.d_entries <> [] then begin
        dt.d_entries <- [];
        persist_dtab t c ~durable:true
      end)
    t.dtabs;
  (* 3. presumed abort: discard prepares whose gtid was never decided *)
  Array.iteri
    (fun p pt ->
      match pt.p_staged with
      | None -> ()
      | Some (c, g, cids) ->
          if g < t.dtabs.(c).d_next then
            tamper "stale prepare on shard %d: transaction %d/%d was decided and cleaned without it" p c g;
          pt.p_staged <- None;
          persist_ptab_shard t p ~also_dealloc:cids)
    t.ptabs

(* Snapshots are taken in lockstep, so after a crash between per-shard
   snapshot calls some shards may hold an extra pinned id: release
   anything not pinned everywhere, then align the id generators. *)
let reconcile_snapshots t =
  let ids = Array.map Chunk_store.snapshot_ids t.shards in
  let common = Array.fold_left (fun acc l -> List.filter (fun id -> List.mem id l) acc) ids.(0) ids in
  Array.iteri
    (fun s l -> List.iter (fun id -> if not (List.mem id common) then Chunk_store.release_snapshot t.shards.(s) id) l)
    ids;
  let m = Array.fold_left (fun acc sh -> max acc (Chunk_store.next_snapshot_id sh)) 1 t.shards in
  Array.iter (fun sh -> Chunk_store.align_snapshot_id sh m) t.shards

let open_existing ?(config = Config.default) ~secret ~counters stores : t =
  let n = Array.length stores in
  if not (Int.equal (Array.length counters) n) then
    invalid_arg "Shard_store.open_existing: counters/stores length mismatch";
  if not (Int.equal config.Config.shards n) then
    raise
      (Chunk_store.Recovery_failed
         (Printf.sprintf "configured for %d shards but %d shard stores supplied" config.Config.shards n));
  let scfg = shard_config config n in
  let shards =
    Array.init n (fun i -> Chunk_store.open_existing ~config:scfg ~secret ~counter:counters.(i) stores.(i))
  in
  let sec = if n > 1 then Some (Security.create config secret) else None in
  let t = make ~cfg:config ~sec shards in
  (* width check: shard 0's decision-table record carries the shard count;
     a legacy (unsharded) store has none and opens only at n = 1 *)
  (match read_reserved shards.(0) dtab_cid with
  | None ->
      if n > 1 then
        raise (Chunk_store.Recovery_failed "store is unsharded (or shard 0 of a different layout); open it with shards = 1")
  | Some s ->
      let stored_n, _ = decode_dtab s in
      if not (Int.equal stored_n n) then
        raise
          (Chunk_store.Recovery_failed
             (Printf.sprintf "store was created with %d shards but %d were supplied" stored_n n)));
  if n > 1 then begin
    Array.iteri
      (fun i sh ->
        (match read_reserved sh dtab_cid with
        | None -> ()
        | Some s ->
            let stored_n, dt = decode_dtab s in
            if not (Int.equal stored_n n) then
              raise (Chunk_store.Recovery_failed (Printf.sprintf "shard %d was created at width %d, not %d" i stored_n n));
            t.dtabs.(i) <- dt);
        match read_reserved sh ptab_cid with
        | None -> ()
        | Some s -> t.ptabs.(i) <- decode_ptab s)
      shards;
    reconcile_snapshots t;
    resolve_in_doubt t
  end;
  t

let close t = Array.iter Chunk_store.close t.shards

(* ------------------------------------------------------------------ *)
(* Chunk operations                                                    *)
(* ------------------------------------------------------------------ *)

let allocate ?shard t : chunk_id =
  if Int.equal t.n 1 then Chunk_store.allocate t.shards.(0)
  else begin
    let s =
      match shard with
      | Some s ->
          if s < 0 || s >= t.n then invalid_arg "Shard_store.allocate: shard out of range";
          s
      | None ->
          let s = t.rr in
          t.rr <- (t.rr + 1) mod t.n;
          s
    in
    global_of t s (Chunk_store.allocate t.shards.(s))
  end

(* Re-raise per-chunk errors with the global id the caller used. *)
let reglobal t g (f : unit -> 'a) : 'a =
  if Int.equal t.n 1 then f ()
  else
    match f () with
    | v -> v
    | exception Not_allocated _ -> raise (Not_allocated g)
    | exception Not_written _ -> raise (Not_written g)
    | exception Chunk_too_large c -> raise (Chunk_too_large { c with cid = g })

let write t g data : unit =
  let s = shard_of t g and l = local_of t g in
  reglobal t g (fun () -> Chunk_store.write t.shards.(s) l data);
  if t.n > 1 then Hashtbl.replace t.mirror.(s) l (Rwrite data)

let read t g : string =
  let s = shard_of t g and l = local_of t g in
  reglobal t g (fun () -> Chunk_store.read t.shards.(s) l)

let read_many t (gids : chunk_id list) : string list =
  if Int.equal t.n 1 then Chunk_store.read_many t.shards.(0) gids
  else begin
    (* group by shard preserving order, batch per shard, then stitch *)
    let per = Array.make t.n [] in
    List.iter (fun g -> per.(shard_of t g) <- local_of t g :: per.(shard_of t g)) gids;
    let res = Array.map (fun _ -> ref []) t.shards in
    Array.iteri (fun s l -> res.(s) := Chunk_store.read_many t.shards.(s) (List.rev l)) per;
    List.map
      (fun g ->
        let s = shard_of t g in
        match !(res.(s)) with
        | d :: rest ->
            res.(s) := rest;
            d
        | [] -> tamper "read_many stitch underflow")
      gids
  end

let deallocate t g : unit =
  let s = shard_of t g and l = local_of t g in
  reglobal t g (fun () -> Chunk_store.deallocate t.shards.(s) l);
  if t.n > 1 then Hashtbl.replace t.mirror.(s) l Rdealloc

let restore_chunk t g data : unit =
  let s = shard_of t g and l = local_of t g in
  reglobal t g (fun () -> Chunk_store.restore_chunk t.shards.(s) l data);
  if t.n > 1 then Hashtbl.replace t.mirror.(s) l (Rwrite data)

let abort_batch t : unit =
  Array.iter Chunk_store.abort_batch t.shards;
  Array.iter Hashtbl.reset t.mirror

(* ------------------------------------------------------------------ *)
(* Commit: single-shard passthrough, or cross-shard 2PC                *)
(* ------------------------------------------------------------------ *)

(* Redo payloads are split into chunk-sized pieces; leave headroom for
   the record framing the store adds. *)
let split_pieces t (payload : string) : string list =
  let max_piece = Config.max_chunk_size (shard_config t.cfg t.n) - 64 in
  let len = String.length payload in
  if Int.equal len 0 then [ "" ]
  else begin
    let rec go off acc =
      if off >= len then List.rev acc
      else
        let l = min max_piece (len - off) in
        go (off + l) (String.sub payload off l :: acc)
    in
    go 0 []
  end

(* Roll back a partially-prepared transaction: discard every already
   durable prepare, abort every still-buffered batch, clear mirrors. *)
let abort_prepared t ~prepared ~parts =
  List.iter
    (fun (p, cids) ->
      t.ptabs.(p).p_staged <- None;
      persist_ptab_shard t p ~also_dealloc:cids)
    prepared;
  List.iter
    (fun p ->
      Chunk_store.abort_batch t.shards.(p);
      Hashtbl.reset t.mirror.(p))
    parts

let two_phase t ~coord:c (parts : int list) : unit =
  let gtid = t.dtabs.(c).d_next in
  (* phase 1: prepare each participant — one durable commit apiece *)
  let prepared = ref [] in
  List.iter
    (fun p ->
      let sh = t.shards.(p) in
      (match t.hook with
      | Some f when not (f p) ->
          Chunk_store.abort_batch sh;
          abort_prepared t ~prepared:(List.rev !prepared) ~parts;
          raise (Vetoed p)
      | _ -> ());
      Chunk_store.abort_batch sh;
      let pieces = split_pieces t (encode_redo t.mirror.(p)) in
      let cids = List.map (fun _ -> Chunk_store.allocate sh) pieces in
      List.iter2 (fun cid piece -> Chunk_store.write sh cid piece) cids pieces;
      t.ptabs.(p).p_staged <- Some (c, gtid, cids);
      Chunk_store.write sh ptab_cid (encode_ptab t.ptabs.(p));
      Chunk_store.commit ~durable:true sh;
      t.dirty.(p) <- false;
      prepared := (p, cids) :: !prepared)
    parts;
  let prepared = List.rev !prepared in
  (* commit point: the coordinator's MAC'd, chained decision record *)
  let dt = t.dtabs.(c) in
  let prev = dt.d_chain in
  let mac = entry_mac t ~coord:c ~gtid ~parts ~prev in
  dt.d_entries <- dt.d_entries @ [ { e_gtid = gtid; e_parts = parts; e_prev = prev; e_mac = mac } ];
  dt.d_chain <- mac;
  dt.d_next <- gtid + 1;
  persist_dtab t c ~durable:true;
  t.dirty.(c) <- false;
  (* phase 2: apply each participant from its (mirrored) batch *)
  List.iter
    (fun (p, cids) ->
      let sh = t.shards.(p) in
      let ops = Hashtbl.fold (fun cid op acc -> (cid, op) :: acc) t.mirror.(p) [] in
      replay_redo sh (List.sort (fun (a, _) (b, _) -> Int.compare a b) ops);
      t.ptabs.(p).p_staged <- None;
      Hashtbl.replace t.ptabs.(p).p_hw c gtid;
      persist_ptab_shard t p ~also_dealloc:cids;
      Hashtbl.reset t.mirror.(p))
    prepared;
  (* cleanup: drop the decision entry; nondurable is fine — recovery
     re-drops a resurrected entry once every high-water mark covers it *)
  dt.d_entries <- List.filter (fun e -> not (Int.equal e.e_gtid gtid)) dt.d_entries;
  persist_dtab t c ~durable:false

let commit ?(durable = true) t : unit =
  if Int.equal t.n 1 then begin
    Chunk_store.commit ~durable t.shards.(0);
    t.txn_commits <- t.txn_commits + 1
  end
  else begin
    let parts = ref [] in
    for s = t.n - 1 downto 0 do
      if Hashtbl.length t.mirror.(s) > 0 then parts := s :: !parts
    done;
    match !parts with
    | [] -> ()
    | [ s ] ->
        Chunk_store.commit ~durable t.shards.(s);
        Hashtbl.reset t.mirror.(s);
        t.dirty.(s) <- not durable;
        t.txn_commits <- t.txn_commits + 1
    | c :: _ :: _ as parts ->
        (* spanning shards: always durable — atomicity across
           independently-recovering shards needs durable prepare/decision *)
        two_phase t ~coord:c parts;
        t.txn_commits <- t.txn_commits + 1;
        t.cross_commits <- t.cross_commits + 1
  end

(* ------------------------------------------------------------------ *)
(* Barriers                                                            *)
(* ------------------------------------------------------------------ *)

type barrier_token = (int * Chunk_store.barrier_token) list

let barrier_shards t : int list =
  if Int.equal t.n 1 then [ 0 ]
  else begin
    let l = ref [] in
    for s = t.n - 1 downto 0 do
      if t.dirty.(s) then l := s :: !l
    done;
    !l
  end

let barrier_begin t : barrier_token =
  List.map
    (fun s ->
      let tok = Chunk_store.barrier_begin t.shards.(s) in
      t.dirty.(s) <- false;
      t.barriers.(s) <- t.barriers.(s) + 1;
      (s, tok))
    (barrier_shards t)

let barrier_sync t (toks : barrier_token) : unit =
  List.iter (fun (s, tok) -> Chunk_store.barrier_sync t.shards.(s) tok) toks

let barrier_finish t (toks : barrier_token) : unit =
  List.iter (fun (s, tok) -> Chunk_store.barrier_finish t.shards.(s) tok) toks

let durable_barrier t : unit =
  List.iter
    (fun s ->
      Chunk_store.durable_barrier t.shards.(s);
      t.dirty.(s) <- false;
      t.barriers.(s) <- t.barriers.(s) + 1)
    (barrier_shards t)

(* ------------------------------------------------------------------ *)
(* Maintenance, snapshots                                              *)
(* ------------------------------------------------------------------ *)

let checkpoint t = Array.iter Chunk_store.checkpoint t.shards
let clean ?max_segments t = Array.iter (fun sh -> Chunk_store.clean ?max_segments sh) t.shards

let snapshot t : int =
  let ids = Array.map Chunk_store.snapshot t.shards in
  Array.iter
    (fun id -> if not (Int.equal id ids.(0)) then invalid_arg "Shard_store.snapshot: shards out of lockstep")
    ids;
  ids.(0)

let release_snapshot t id = Array.iter (fun sh -> Chunk_store.release_snapshot sh id) t.shards
let snapshot_seq t id = Array.fold_left (fun acc sh -> acc + Chunk_store.snapshot_seq sh id) 0 t.shards

(* The router's own records (decision table, participant status) are
   infrastructure, not data: backups and replication must not carry them
   (a follower has its own), so folds/diffs/live-id sets skip them. *)
let router_local t l = t.n > 1 && (Int.equal l dtab_cid || Int.equal l ptab_cid)

let fold_snapshot t id ~init ~f =
  let acc = ref init in
  Array.iteri
    (fun s sh ->
      acc :=
        Chunk_store.fold_snapshot sh id ~init:!acc ~f:(fun acc l data ->
            if router_local t l then acc else f acc (global_of t s l) data))
    t.shards;
  !acc

let diff_snapshots t ~old_id ~new_id ~changed ~removed =
  Array.iteri
    (fun s sh ->
      Chunk_store.diff_snapshots sh ~old_id ~new_id
        ~changed:(fun l data -> if not (router_local t l) then changed (global_of t s l) data)
        ~removed:(fun l -> if not (router_local t l) then removed (global_of t s l)))
    t.shards

let live_ids t : chunk_id list =
  if Int.equal t.n 1 then Chunk_store.live_ids t.shards.(0)
  else begin
    let all = ref [] in
    Array.iteri
      (fun s sh ->
        List.iter (fun l -> if not (router_local t l) then all := global_of t s l :: !all) (Chunk_store.live_ids sh))
      t.shards;
    List.sort Int.compare !all
  end

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let shards t = t.n
let shard_store t s = t.shards.(s)
let txn_commits t = if Int.equal t.n 1 then (Chunk_store.stats t.shards.(0)).Chunk_store.commits else t.txn_commits
let cross_commits t = t.cross_commits
let shard_barriers t = Array.copy t.barriers
let shard_counters t = Array.map Chunk_store.counter_value t.shards
let set_prepare_hook t h = t.hook <- h

let stats t : Chunk_store.stats =
  let open Chunk_store in
  let agg =
    {
      commits = 0; durable_commits = 0; checkpoints = 0; clean_passes = 0; segments_cleaned = 0;
      chunks_relocated = 0; bytes_relocated = 0; tier_segments = [];
      tampers = 0; bytes_data = 0; bytes_map = 0; bytes_commit = 0;
      grow_policy = 0; grow_fallback = 0; grow_backstop = 0; cache_hits = 0; cache_misses = 0;
      cache_evictions = 0; par_batches = 0; par_tasks = 0; par_wait_ns = 0;
      backup_last_id = (Chunk_store.stats t.shards.(0)).backup_last_id;
      backup_base_snapshot = (Chunk_store.stats t.shards.(0)).backup_base_snapshot;
      backup_chain = (Chunk_store.stats t.shards.(0)).backup_chain;
    }
  in
  Array.iter
    (fun sh ->
      let s = Chunk_store.stats sh in
      agg.commits <- agg.commits + s.commits;
      agg.durable_commits <- agg.durable_commits + s.durable_commits;
      agg.checkpoints <- agg.checkpoints + s.checkpoints;
      agg.clean_passes <- agg.clean_passes + s.clean_passes;
      agg.segments_cleaned <- agg.segments_cleaned + s.segments_cleaned;
      agg.chunks_relocated <- agg.chunks_relocated + s.chunks_relocated;
      agg.bytes_relocated <- agg.bytes_relocated + s.bytes_relocated;
      (agg.tier_segments <-
        (* element-wise sum; every shard shares [t.cfg.tiers], so the lists
           line up (pad defensively if one differs) *)
        (let a = agg.tier_segments and b = s.tier_segments in
         let n = max (List.length a) (List.length b) in
         List.init n (fun i ->
             (match List.nth_opt a i with Some v -> v | None -> 0)
             + match List.nth_opt b i with Some v -> v | None -> 0)));
      agg.tampers <- agg.tampers + s.tampers;
      agg.bytes_data <- agg.bytes_data + s.bytes_data;
      agg.bytes_map <- agg.bytes_map + s.bytes_map;
      agg.bytes_commit <- agg.bytes_commit + s.bytes_commit;
      agg.grow_policy <- agg.grow_policy + s.grow_policy;
      agg.grow_fallback <- agg.grow_fallback + s.grow_fallback;
      agg.grow_backstop <- agg.grow_backstop + s.grow_backstop;
      agg.cache_hits <- agg.cache_hits + s.cache_hits;
      agg.cache_misses <- agg.cache_misses + s.cache_misses;
      agg.cache_evictions <- agg.cache_evictions + s.cache_evictions;
      agg.par_batches <- agg.par_batches + s.par_batches;
      agg.par_tasks <- agg.par_tasks + s.par_tasks;
      agg.par_wait_ns <- agg.par_wait_ns + s.par_wait_ns)
    t.shards;
  agg

let counter_value t = Array.fold_left (fun acc sh -> Int64.add acc (Chunk_store.counter_value sh)) 0L t.shards
let commit_seq t = Array.fold_left (fun acc sh -> acc + Chunk_store.commit_seq sh) 0 t.shards
let live_bytes t = Array.fold_left (fun acc sh -> acc + Chunk_store.live_bytes sh) 0 t.shards
let capacity t = Array.fold_left (fun acc sh -> acc + Chunk_store.capacity sh) 0 t.shards
let store_size t = Array.fold_left (fun acc sh -> acc + Chunk_store.store_size sh) 0 t.shards
let utilization t = float_of_int (live_bytes t) /. float_of_int (max 1 (capacity t))
let config t = t.cfg

let metrics t : Metrics.t =
  let st = stats t in
  let sum f = Array.fold_left (fun acc sh -> acc + f sh) 0 t.shards in
  let ratio a b = Metrics.Float (if b > 0 then float_of_int a /. float_of_int b else 0.) in
  let lookups = st.Chunk_store.cache_hits + st.Chunk_store.cache_misses in
  let fresh = st.Chunk_store.bytes_data - st.Chunk_store.bytes_relocated in
  let shard i sh =
    let name field = Printf.sprintf "shard.%d.%s" i field in
    Metrics.
      [
        (name "counter", Int (Int64.to_int (Chunk_store.counter_value sh)));
        (name "seq", Int (Chunk_store.commit_seq sh));
        (name "size_bytes", Int (Chunk_store.store_size sh));
        (name "barriers", Int t.barriers.(i));
      ]
  in
  Metrics.
    [
      ("store.commits", Int st.Chunk_store.commits);
      ("store.durable_commits", Int st.Chunk_store.durable_commits);
      ("store.checkpoints", Int st.Chunk_store.checkpoints);
      ("store.counter", Int (Int64.to_int (counter_value t)));
      ("store.live_bytes", Int (live_bytes t));
      ("store.capacity_bytes", Int (capacity t));
      ("store.utilization", Float (utilization t));
      ("store.size_bytes", Int (store_size t));
      ("store.security", Text (if Chunk_store.security_enabled t.shards.(0) then "on" else "off"));
      ("chunk_cache.hits", Int st.Chunk_store.cache_hits);
      ("chunk_cache.misses", Int st.Chunk_store.cache_misses);
      ("chunk_cache.evictions", Int st.Chunk_store.cache_evictions);
      ("chunk_cache.hit_rate", ratio st.Chunk_store.cache_hits lookups);
      ("chunk_cache.bytes", Int (sum Chunk_store.cache_bytes));
      ("chunk_cache.budget_bytes", Int (sum Chunk_store.cache_budget));
      ("chunk_cache.resident", Int (sum Chunk_store.cache_resident));
      ("pool.domains", Int (Chunk_store.domains t.shards.(0)));
      ("pool.batches", Int st.Chunk_store.par_batches);
      ("pool.tasks", Int st.Chunk_store.par_tasks);
      ("pool.wait_us", Int (st.Chunk_store.par_wait_ns / 1000));
      ("cleaner.tiers", Int t.cfg.Config.tiers);
      ("cleaner.passes", Int st.Chunk_store.clean_passes);
      ("cleaner.segments_cleaned", Int st.Chunk_store.segments_cleaned);
      ("cleaner.chunks_relocated", Int st.Chunk_store.chunks_relocated);
      ("cleaner.bytes_relocated", Int st.Chunk_store.bytes_relocated);
      ("cleaner.bytes_data", Int st.Chunk_store.bytes_data);
      ("cleaner.write_amp", ratio st.Chunk_store.bytes_relocated fresh);
    ]
  @ List.mapi (fun k n -> (Printf.sprintf "cleaner.tier.%d.segments" k, Metrics.Int n)) st.Chunk_store.tier_segments
  @ Metrics.
      [
        ("backup.last_id", Int st.Chunk_store.backup_last_id);
        ("backup.base_snapshot", Int st.Chunk_store.backup_base_snapshot);
        ("backup.chain", Text (Tdb_crypto.Hex.of_string st.Chunk_store.backup_chain));
        ("shard.width", Int t.n);
        ("shard.cross_commits", Int t.cross_commits);
      ]
  @ List.concat (List.mapi shard (Array.to_list t.shards))
