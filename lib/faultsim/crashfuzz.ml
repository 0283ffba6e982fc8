(** Crashpoint sweep harness (see DESIGN.md, "Crash model").

    The harness replays a deterministic chunk workload through a
    {!Shard_store} router of width [n] and crashes it — via {!Fault_plan} —
    at {e every} write/sync boundary of all [n] database stores and all [n]
    one-way-counter stores, under several seeded choices of which unsynced
    writes survive ({!Tdb_platform.Untrusted_store.Mem.crash}). A 1-shard
    router is a pure passthrough to one chunk store, so width 1 sweeps the
    unsharded store with byte-identical I/O. After each crash it reopens
    the database and checks invariant oracles against a shadow model:

    - {b durability}: the recovered chunk state equals the shadow state at
      some admissible commit boundary — no earlier than the last commit
      known durable (durable commit returned, or a checkpoint was observed
      after a nondurable commit returned), no later than the last commit
      issued; in particular every durably committed batch is fully visible
      and every batch is all-or-nothing (across shards, too);
    - {b honesty}: an honest crash never raises [Tamper_detected] (no
      false tampering) and never loses the anchor ([Recovery_failed]);
    - {b counter monotonicity}: no shard's one-way counter reads below the
      highest value previously observed after a completed operation;
    - {b usability}: after recovery the store accepts a write + durable
      commit and its utilization accounting stays within bounds.

    What varies between sweeps is the {e phase}: the phase-A workload,
    its DRBG seed and payload tags, its config tweak and its width. Each
    crashed run continues into a second phase: an epilogue workload
    against the recovered store with a second seeded crashpoint, which
    exercises the crash behaviour of freshly-reopened state (notably the
    counter slot-targeting window). The tamper sweep bit-flips every
    stride-th byte of a phase's committed image and checks the
    detected/harmless/silent trichotomy: silent wrong data must never
    happen. *)

module US = Tdb_platform.Untrusted_store
module OWC = Tdb_platform.One_way_counter
module Drbg = Tdb_crypto.Drbg
open Tdb_chunk

(* ------------------------------------------------------------------ *)
(* Configuration *)

type trace_cfg = {
  accounts : int;
  tellers : int;
  branches : int;
  txns : int;
  durable_every : int;  (** every n-th transaction commits durably *)
  history_keep : int;  (** history chunks retained before deallocation *)
  epilogue_txns : int;  (** post-recovery phase-B transactions *)
  seed : string;
}

let default_trace =
  {
    accounts = 12;
    tellers = 4;
    branches = 2;
    txns = 24;
    durable_every = 4;
    history_keep = 10;
    epilogue_txns = 6;
    seed = "tdb-crashfuzz";
  }

let smoke_trace = { default_trace with accounts = 6; tellers = 2; branches = 1; txns = 8; epilogue_txns = 4 }

(* Small segments force chained sub-commits and frequent checkpoints;
   Aes128/Sha1 keeps thousands of runs fast. The width is always set
   explicitly (see [with_width]), never taken from TDB_SHARDS. *)
let store_config =
  {
    Config.default with
    Config.cipher = Config.Aes128;
    hash = Config.Sha1;
    segment_size = 2048;
    anchor_slot_size = 1024;
    initial_segments = 4;
    checkpoint_every = 8;
    checkpoint_residual_bytes = 4 * 2048;
    clean_batch = 2;
  }

let with_width n cfg = { cfg with Config.shards = n }
let secret = Tdb_platform.Secret_store.of_seed "crashfuzz-device"

(* ------------------------------------------------------------------ *)
(* Reports *)

type violation = { v_run : string; v_kind : string; v_detail : string }

type crash_report = {
  boundaries : int;  (** write/sync boundaries in the recorded trace *)
  crashpoints : int;  (** boundaries actually swept (stride) *)
  seeds : int;
  runs : int;
  crashes : int;
  recoveries : int;
  violations : violation list;
}

type tamper_report = {
  image_bytes : int;
  flips : int;
  detected : int;
  harmless : int;
  silent : int;  (** must be 0: a flip produced wrong data without detection *)
  silent_offsets : int list;
}

type report = Crash of crash_report | Tamper of tamper_report

(* ------------------------------------------------------------------ *)
(* Shadow model *)

type chunk_state = (int, string) Hashtbl.t

type shadow = {
  model : chunk_state;  (* live state, including the open batch *)
  all_cids : (int, unit) Hashtbl.t;  (* every id ever written, across phases *)
  states : (int, chunk_state) Hashtbl.t;  (* snapshot at each issued commit *)
  mutable issued : int;  (* commits issued since the base state *)
  mutable durable_lo : int;  (* highest commit index known durable *)
}

let shadow_create () =
  { model = Hashtbl.create 64; all_cids = Hashtbl.create 64; states = Hashtbl.create 16; issued = 0; durable_lo = 0 }

let shadow_write sh cid data =
  Hashtbl.replace sh.model cid data;
  Hashtbl.replace sh.all_cids cid ()

let shadow_dealloc sh cid = Hashtbl.remove sh.model cid

(* Declare the current model state the durable base (index 0). *)
let shadow_base sh =
  Hashtbl.reset sh.states;
  Hashtbl.replace sh.states 0 (Hashtbl.copy sh.model);
  sh.issued <- 0;
  sh.durable_lo <- 0

(* Reset the base to a previously snapshotted state (post-recovery). *)
let shadow_reset_to sh d =
  (match Hashtbl.find_opt sh.states d with
  | Some st ->
      Hashtbl.reset sh.model;
      Hashtbl.iter (fun k v -> Hashtbl.replace sh.model k v) st
  | None -> ());
  shadow_base sh

exception Harness_violation of string * string

(* ------------------------------------------------------------------ *)
(* Stores under test *)

(* [n = config.shards] database stores and [n] one-way-counter stores,
   all instrumented by ONE fault plan, so the global boundary counter
   interleaves every shard's writes and syncs (devices sharing one power
   supply). *)
type env = {
  config : Config.t;
  db_mem : US.Mem.handle array;
  db : US.t array;  (* instrumented *)
  ctr_mem : US.Mem.handle array;
  ctr : US.t array;  (* instrumented *)
  plan : Fault_plan.t;
}

let make_env config =
  let plan = Fault_plan.create () in
  let n = config.Config.shards in
  let db = Array.init n (fun _ -> US.open_mem ()) in
  let ctr = Array.init n (fun _ -> US.open_mem ()) in
  {
    config;
    db_mem = Array.map fst db;
    db = Array.map (fun (_, r) -> Fault_plan.instrument plan r) db;
    ctr_mem = Array.map fst ctr;
    ctr = Array.map (fun (_, r) -> Fault_plan.instrument plan r) ctr;
    plan;
  }

let create_store env =
  let ctrs = Array.map OWC.open_store env.ctr in
  (ctrs, Shard_store.create ~config:env.config ~secret ~counters:ctrs env.db)

let open_store env =
  let ctrs = Array.map OWC.open_store env.ctr in
  (ctrs, Shard_store.open_existing ~config:env.config ~secret ~counters:ctrs env.db)

(* Lose a seeded subset of every store's unsynced writes. *)
let crash_env env ~persist_prob ~rng =
  Array.iter (US.Mem.crash ~persist_prob ~rng) env.db_mem;
  Array.iter (US.Mem.crash ~persist_prob ~rng) env.ctr_mem

(* Count the write/sync boundaries [f] issues, with the plan armed past
   the horizon. *)
let count_boundaries env f =
  Fault_plan.arm env.plan ~at:max_int ~tear:Fault_plan.Skip;
  f ();
  let n = Fault_plan.ops env.plan in
  Fault_plan.reset env.plan;
  n

(* One run's view of the database: the live router and counters (replaced
   on every reopen), the shadow, the trace DRBG (phase A, then the
   epilogue) and each shard's counter floor. *)
type db = {
  env : env;
  sh : shadow;
  rng : Drbg.t;
  floors : int64 array;
  mutable ss : Shard_store.t;
  mutable ctrs : OWC.t array;
  mutable cp_seen : int;
}

let fresh_db env ~rng =
  let ctrs, ss = create_store env in
  let sh = shadow_create () in
  shadow_base sh;
  { env; sh; rng; floors = Array.map OWC.read ctrs; ss; ctrs; cp_seen = 0 }

let width d = Array.length d.floors

(* Has shard 0 checkpointed since the last call? Only meaningful at width
   1: a checkpoint on one shard says nothing about another shard's
   nondurable commits, so at width >= 2 nondurable boundaries simply stay
   in the admissible window. *)
let new_checkpoint d =
  Int.equal (width d) 1
  &&
  let cps = (Chunk_store.stats (Shard_store.shard_store d.ss 0)).Chunk_store.checkpoints in
  let seen = cps > d.cp_seen in
  d.cp_seen <- cps;
  seen

(* Every commit up to [upto] is known durable: raise [durable_lo] and
   every shard's counter floor. *)
let mark_durable d upto =
  if upto > d.sh.durable_lo then d.sh.durable_lo <- upto;
  Array.iteri
    (fun i c ->
      let hw = OWC.read c in
      if Int64.compare hw d.floors.(i) > 0 then d.floors.(i) <- hw)
    d.ctrs;
  ignore (new_checkpoint d)

(* Commit the open batch, snapshotting the shadow at the commit boundary
   and tracking which boundary is known durable. [durable] is what the
   workload {e observes}: the router upgrades any multi-shard batch to
   durable, so callers pass the effective flag. A checkpoint observed
   after a nondurable commit promotes every earlier commit to durable
   (conservatively: up to the previous boundary — the checkpoint may have
   run before this batch was appended). *)
let commit_shadow ~durable d =
  let sh = d.sh in
  sh.issued <- sh.issued + 1;
  Hashtbl.replace sh.states sh.issued (Hashtbl.copy sh.model);
  Shard_store.commit ~durable d.ss;
  if durable then mark_durable d sh.issued
  else if new_checkpoint d then begin
    let c = sh.issued - 1 in
    if c > sh.durable_lo then sh.durable_lo <- c
  end

(* ------------------------------------------------------------------ *)
(* Workloads *)

let record_len = 96

let pad s =
  let n = String.length s in
  if n >= record_len then String.sub s 0 record_len else s ^ String.make (record_len - n) '.'

let put d cid data =
  Shard_store.write d.ss cid data;
  shadow_write d.sh cid data

let drop d cid =
  Shard_store.deallocate d.ss cid;
  shadow_dealloc d.sh cid

let check_read d cid =
  let got = Shard_store.read d.ss cid in
  match Hashtbl.find_opt d.sh.model cid with
  | Some want when String.equal want got -> ()
  | _ -> raise (Harness_violation ("live-read-mismatch", Printf.sprintf "chunk %d" cid))

(* Read-check a chunk against the shadow, then overwrite it. *)
let update d cid data =
  check_read d cid;
  put d cid data

(* Bulk load: one durable commit, chained into sub-commits by the small
   segment budget. *)
let load_base ~trace d =
  let n_base = trace.accounts + trace.tellers + trace.branches in
  let base = Array.init n_base (fun _ -> Shard_store.allocate d.ss) in
  Array.iteri (fun i cid -> put d cid (pad (Printf.sprintf "base:%03d:init:%d" i (Drbg.int d.rng 1_000_000)))) base;
  commit_shadow ~durable:true d;
  base

(* Plain phase A: TPC-B-style transactions after the bulk load — update
   an account, a teller and a branch record, append a history chunk,
   retire old history. Raises [Fault_plan.Crash_point] when the plan
   fires. *)
let run_phase_a ~trace d =
  let base = load_base ~trace d in
  let history = Queue.create () in
  for i = 1 to trace.txns do
    let a = base.(Drbg.int d.rng trace.accounts) in
    let t = base.(trace.accounts + Drbg.int d.rng trace.tellers) in
    let b = base.(trace.accounts + trace.tellers + Drbg.int d.rng trace.branches) in
    let delta = Drbg.int d.rng 10_000 in
    List.iter (fun cid -> update d cid (pad (Printf.sprintf "upd:%03d:txn:%04d:delta:%d" cid i delta))) [ a; t; b ];
    let h = Shard_store.allocate d.ss in
    put d h (pad (Printf.sprintf "hist:%04d:%d:%d:%d:%d" i a t b delta));
    Queue.add h history;
    if Queue.length history > trace.history_keep then drop d (Queue.pop history);
    commit_shadow ~durable:(Int.equal (i mod trace.durable_every) 0) d
  done

(* Group-commit phase A: batches of nondurable session commits made
   durable by a *staged* barrier ({!Shard_store.barrier_begin} /
   [barrier_sync] / [barrier_finish]), with further commits landing
   inside the sync window and between sync and finish — the exact
   interleaving the server's group-commit coordinator produces, replayed
   deterministically so the sweep can crash at every boundary of a
   coalesced multi-session barrier. Window commits land after the
   barrier's commit record, so they are not covered by it: [durable_lo]
   advances only to the commits issued before [barrier_begin]. This also
   exercises the barrier's restricted segment reclamation — a window
   commit may obsolete a chunk version that recovery (to the barrier
   point) still needs. Width 1 only: see DESIGN.md, "Sharding". *)
let run_phase_gc ~trace d =
  let base = load_base ~trace d in
  let n_base = Array.length base in
  (* Two segment-sized chunks: rewriting one obsoletes (almost) a whole
     segment at once, so window commits regularly empty segments — the
     reclamation case the barrier's eligible set must exclude. *)
  let fat_len = store_config.Config.segment_size * 3 / 4 in
  let fat = Array.init 2 (fun _ -> Shard_store.allocate d.ss) in
  let fat_data i v =
    let s = Printf.sprintf "fat:%d:v:%04d:" i v in
    s ^ String.make (fat_len - String.length s) (Char.chr (Char.code 'a' + (v mod 26)))
  in
  Array.iteri (fun i cid -> put d cid (fat_data i 0)) fat;
  commit_shadow ~durable:true d;
  let txn = ref 0 in
  let session_commit tag =
    incr txn;
    if Int.equal (Drbg.int d.rng 3) 0 then begin
      let i = Drbg.int d.rng (Array.length fat) in
      update d fat.(i) (fat_data i !txn)
    end
    else begin
      let cid = base.(Drbg.int d.rng n_base) in
      update d cid (pad (Printf.sprintf "%s:%03d:txn:%04d:%d" tag cid !txn (Drbg.int d.rng 10_000)))
    end;
    commit_shadow ~durable:false d
  in
  while !txn < trace.txns do
    (* sessions that committed before the leader took the barrier *)
    for _ = 0 to Drbg.int d.rng 3 do
      session_commit "gc"
    done;
    let covered = d.sh.issued in
    let tok = Shard_store.barrier_begin d.ss in
    (* sessions landing while the leader syncs: after the barrier record *)
    for _ = 1 to Drbg.int d.rng 6 do
      session_commit "win"
    done;
    Shard_store.barrier_sync d.ss tok;
    (* the state lock can be retaken between sync and finish *)
    if Int.equal (Drbg.int d.rng 2) 0 then session_commit "gap";
    Shard_store.barrier_finish d.ss tok;
    mark_durable d covered
  done

(* Commit-flush phase A: every commit is a *large* durable commit — a
   batch of chunk writes that the log's tail buffer coalesces into a
   single vectored flush of many fragments (record headers, sealed
   payloads, Next_segment markers). [Fault_plan.instrument] decomposes
   each vectored write back into per-fragment crash boundaries, so with
   stride 1 this sweep crashes at every fragment boundary of a coalesced
   commit flush: between a record's header and its payload, between
   adjacent records, and at the chain markers of a flush that spills
   across segments. Recovery must treat any fragment-suffix loss as an
   ordinary torn tail. *)
let run_phase_flush ~trace d =
  let base = load_base ~trace d in
  let n_base = Array.length base in
  let fresh = Queue.create () in
  for i = 1 to trace.txns do
    (* rewrite several base chunks: many records in one commit flush *)
    for j = 1 to 3 + Drbg.int d.rng 3 do
      let cid = base.(Drbg.int d.rng n_base) in
      update d cid (pad (Printf.sprintf "flu:%03d:txn:%04d:%d:%d" cid i j (Drbg.int d.rng 10_000)))
    done;
    (* allocate a few new chunks and retire old ones, so flushes also
       carry allocation records and the cleaner keeps segments moving *)
    for j = 1 to 2 + Drbg.int d.rng 2 do
      let c = Shard_store.allocate d.ss in
      put d c (pad (Printf.sprintf "flunew:%04d:%d" i j));
      Queue.add c fresh
    done;
    while Queue.length fresh > trace.history_keep do
      drop d (Queue.pop fresh)
    done;
    (* all-durable: each iteration is exactly one coalesced commit flush *)
    commit_shadow ~durable:true d
  done

(* Demotion phase A: drive explicit cleaning passes over a tiered store
   (the demote phase forces [tiers >= 2]) so the sweep crashes at every
   I/O boundary of a demotion pass — mid-relocation, between a survivor's
   re-append and the map update, and inside the checkpoint that seals the
   pass. A skewed churn keeps hot-tier segments garbage-heavy while the
   cold tail survives each pass, so every {!Shard_store.clean} call
   re-appends survivors one tier colder. [clean] is logical-state-neutral
   (chunk versions are preserved across relocation), so the shadow
   oracles apply unchanged; it ends in a checkpoint, which promotes every
   issued commit to durable and bumps the one-way counter. *)
let run_phase_demote ~trace d =
  let base = load_base ~trace d in
  (* the hot head: overwrites concentrate here, so the segments holding
     the cold tail accumulate garbage around live survivors — the exact
     shape a demotion pass relocates *)
  let hot = max 1 (Array.length base / 3) in
  for i = 1 to trace.txns do
    for j = 1 to 2 + Drbg.int d.rng 3 do
      let cid = base.(Drbg.int d.rng hot) in
      update d cid (pad (Printf.sprintf "dem:%03d:txn:%04d:%d:%d" cid i j (Drbg.int d.rng 10_000)))
    done;
    commit_shadow ~durable:(Int.equal (i mod trace.durable_every) 0) d;
    if Int.equal (i mod 3) 0 then begin
      Shard_store.clean ~max_segments:store_config.Config.clean_batch d.ss;
      (* checkpoint + pass + checkpoint: everything issued is now durable *)
      mark_durable d d.sh.issued
    end
  done

let shard_of_gid n g = if g < 8 then 0 else (g - 8) mod n

(* Transfer phase A (width >= 2): per-shard balance chunks loaded in one
   all-shard durable commit (itself a 2PC), then transfers — 3/4 pick a
   distinct source and destination shard, rewrite one balance chunk on
   each, append a history chunk on the source and retire old history
   (whose shard the batch also joins). Cross-shard batches are always
   durable; same-shard transfers follow the trace's durable cadence. With
   stride 1 the sweep crashes at every store boundary {e between prepare
   and commit} — inside a participant's durable prepare, during the
   coordinator's decision write, between apply commits, and in cleanup. *)
let run_phase_transfer ~trace d =
  let n = width d in
  let per = max 2 ((trace.accounts + n - 1) / n) in
  let base = Array.init n (fun s -> Array.init per (fun _ -> Shard_store.allocate ~shard:s d.ss)) in
  Array.iteri
    (fun s row ->
      Array.iteri (fun i cid -> put d cid (pad (Printf.sprintf "sbase:%d:%02d:%d" s i (Drbg.int d.rng 1_000_000)))) row)
    base;
  commit_shadow ~durable:true d;
  let history = Queue.create () in
  for i = 1 to trace.txns do
    let src = Drbg.int d.rng n in
    let dst =
      if Int.equal (Drbg.int d.rng 4) 0 then src
      else begin
        let x = Drbg.int d.rng (n - 1) in
        if x >= src then x + 1 else x
      end
    in
    let touched = ref [] in
    let touch cid = touched := shard_of_gid n cid :: !touched in
    let a = base.(src).(Drbg.int d.rng per) in
    let b = base.(dst).(Drbg.int d.rng per) in
    let delta = Drbg.int d.rng 10_000 in
    List.iter
      (fun cid ->
        update d cid (pad (Printf.sprintf "xfer:%04d:%03d:%d" i cid delta));
        touch cid)
      (if Int.equal a b then [ a ] else [ a; b ]);
    let h = Shard_store.allocate ~shard:src d.ss in
    put d h (pad (Printf.sprintf "xhist:%04d:%d.%d:%d" i src dst delta));
    touch h;
    Queue.add h history;
    if Queue.length history > trace.history_keep then begin
      let old = Queue.pop history in
      drop d old;
      touch old
    end;
    let cross =
      match !touched with
      | [] -> false
      | t0 :: rest -> List.exists (fun s -> not (Int.equal s t0)) rest
    in
    commit_shadow ~durable:(cross || Int.equal (i mod trace.durable_every) 0) d
  done

(* A sweep's workload parameters. [seed_tag] and [data_tag] name the
   phase's DRBG seeds and payload prefixes: changing either changes every
   boundary the phase records. *)
type phase = {
  workload : trace:trace_cfg -> db -> unit;
  seed_tag : string;  (* infix of the trace/fault DRBG seeds *)
  data_tag : string;  (* prefix of epilogue and probe payloads *)
  config : Config.t;  (* [shards] is the width *)
}

let plain = { workload = run_phase_a; seed_tag = ""; data_tag = ""; config = with_width 1 store_config }
let group_commit = { plain with workload = run_phase_gc }
let commit_flush = { plain with workload = run_phase_flush }

(* The demote sweep must see a tiered cleaner even when the ambient
   [Config.tiers] (TDB_TIERS) is 1; with more tiers configured it sweeps
   the deeper lattice as-is. *)
let demote =
  { plain with workload = run_phase_demote; config = { plain.config with Config.tiers = max 2 store_config.Config.tiers } }

let transfer ~who shards =
  let n = match shards with Some n -> n | None -> max 2 (Config.default_shards ()) in
  if n < 2 then invalid_arg (who ^ ": shards must be >= 2");
  { workload = run_phase_transfer; seed_tag = "shard-"; data_tag = "s"; config = with_width n store_config }

let trace_rng ph trace = Drbg.create ~seed:(trace.seed ^ ":" ^ ph.seed_tag ^ "trace")

(* Phase B: generic epilogue against whatever state recovery produced —
   rewrite existing chunks, allocate new ones (round-robin, so durable
   commits keep spanning shards), occasionally deallocate. *)
let run_epilogue ph ~trace d =
  for i = 1 to trace.epilogue_txns do
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) d.sh.model [] in
    let keys = Array.of_list (List.sort Int.compare keys) in
    let nkeys = Array.length keys in
    if nkeys > 0 then begin
      let cid = keys.(Drbg.int d.rng nkeys) in
      update d cid (pad (Printf.sprintf "%sepi:%03d:txn:%04d" ph.data_tag cid i))
    end;
    let c = Shard_store.allocate d.ss in
    put d c (pad (Printf.sprintf "%sepinew:%04d" ph.data_tag i));
    if nkeys > 4 && Int.equal (Drbg.int d.rng 4) 0 then begin
      let victim = keys.(Drbg.int d.rng nkeys) in
      if Hashtbl.mem d.sh.model victim then drop d victim
    end;
    (* All-durable: the epilogue exists to exercise the freshly-reopened
       store's durable-commit path, counter increments included. *)
    commit_shadow ~durable:true d
  done

(* ------------------------------------------------------------------ *)
(* Oracles *)

let add violations run kind detail = violations := { v_run = run; v_kind = kind; v_detail = detail } :: !violations

(* Does the recovered store hold exactly the chunk state [st]?  Every id
   ever used must either match [st] or be unreadable when absent from
   [st]; a [Tamper_detected] anywhere is reported upward (honest runs must
   never see one). *)
let state_matches ss st all_cids =
  Hashtbl.fold
    (fun cid () acc ->
      match acc with
      | Error _ | Ok false -> acc
      | Ok true -> (
          match Hashtbl.find_opt st cid with
          | Some want -> (
              match Shard_store.read ss cid with
              | got -> Ok (String.equal got want)
              | exception Types.Not_written _ -> Ok false
              | exception Types.Not_allocated _ -> Ok false
              | exception Types.Tamper_detected m -> Error m)
          | None -> (
              match Shard_store.read ss cid with
              | _ -> Ok false
              | exception Types.Not_written _ -> Ok true
              | exception Types.Not_allocated _ -> Ok true
              | exception Types.Tamper_detected m -> Error m)))
    all_cids (Ok true)

(* Try every admissible boundary, newest first. *)
let match_candidates ss sh =
  let rec go d =
    if d < sh.durable_lo then Error "recovered state matches no admissible commit boundary"
    else
      match Hashtbl.find_opt sh.states d with
      | None -> go (d - 1)
      | Some st -> (
          match state_matches ss st sh.all_cids with
          | Ok true -> Ok d
          | Ok false -> go (d - 1)
          | Error m -> Error ("tamper during state check: " ^ m))
  in
  go sh.issued

(* Reopen every shard after a crash and run the recovery oracles; on
   success the reopened router replaces [d.ss]. A batch applied on some
   shards but not others matches no boundary: at width >= 2 that is the
   atomicity oracle. *)
let reopen_and_check ~run ~violations d =
  match open_store d.env with
  | exception Types.Tamper_detected m -> add violations run "false-tamper" m; false
  | exception Chunk_store.Recovery_failed m -> add violations run "recovery-failed" m; false
  | exception e -> add violations run "recovery-exception" (Printexc.to_string e); false
  | ctrs, ss ->
      d.ss <- ss;
      d.ctrs <- ctrs;
      d.cp_seen <- 0;
      Array.iteri
        (fun i c ->
          let hw = OWC.read c in
          if Int64.compare hw d.floors.(i) < 0 then
            add violations run "counter-rollback" (Printf.sprintf "shard %d: read %Ld, floor %Ld" i hw d.floors.(i));
          if Int64.compare hw d.floors.(i) > 0 then d.floors.(i) <- hw)
        ctrs;
      (match match_candidates ss d.sh with
      | Ok b -> shadow_reset_to d.sh b
      | Error detail ->
          let kind = if width d > 1 then "atomicity-violation" else "durability-violation" in
          add violations run kind detail;
          (* keep going from the live model so later oracles still run *)
          shadow_base d.sh);
      true

(* Post-recovery usability probe: a write on the first and last shard plus
   a durable commit (a fresh cross-shard 2PC at width >= 2) must succeed,
   serve the data back, and keep the utilization accounting sane. *)
let probe ph ~run ~violations d =
  match
    let n = width d in
    let cids = List.map (fun s -> Shard_store.allocate ~shard:s d.ss) (List.sort_uniq Int.compare [ 0; n - 1 ]) in
    List.iter (fun c -> put d c (pad (Printf.sprintf "%sprobe:%06d" ph.data_tag c))) cids;
    commit_shadow ~durable:true d;
    List.iter
      (fun c ->
        let got = Shard_store.read d.ss c in
        match Hashtbl.find_opt d.sh.model c with
        | Some want when String.equal want got -> ()
        | _ -> add violations run "probe-read-mismatch" (Printf.sprintf "chunk %d" c))
      cids;
    let u = Shard_store.utilization d.ss in
    if u < 0.0 || u > 1.0001 then add violations run "utilization-out-of-range" (Printf.sprintf "%f" u);
    let live = Shard_store.live_bytes d.ss and cap = Shard_store.capacity d.ss in
    if live < 0 || live > cap then
      add violations run "accounting-inconsistent" (Printf.sprintf "live %d capacity %d" live cap)
  with
  | () -> ()
  | exception e -> add violations run "probe-exception" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Sweep driver *)

let persist_probs = [| 0.0; 1.0; 0.5; 0.25; 0.75; 0.1; 0.9; 0.35 |]
let tears = [| Fault_plan.Skip; Fault_plan.Torn; Fault_plan.Applied |]

(* Run the phase once to count the write/sync boundaries of its armed
   region. *)
let record_boundaries ph ~trace =
  let env = make_env ph.config in
  let d = fresh_db env ~rng:(trace_rng ph trace) in
  let n = count_boundaries env (fun () -> ph.workload ~trace d) in
  Shard_store.close d.ss;
  n

(* One sweep cell: crash phase A at boundary [k], recover under the
   seeded persistence subset, then run the epilogue with a second seeded
   crashpoint, recover again and probe. *)
let one_run ph ~trace ~violations ~crashes ~recoveries ~k ~seed_idx =
  let env = make_env ph.config in
  let fault_rng = Drbg.create ~seed:(Printf.sprintf "%s:%sfault:%d:%d" trace.seed ph.seed_tag k seed_idx) in
  let persist_prob = persist_probs.(seed_idx mod Array.length persist_probs) in
  let run = Printf.sprintf "%sk=%d seed=%d" ph.seed_tag k seed_idx in
  let d = fresh_db env ~rng:(trace_rng ph trace) in
  Fault_plan.arm env.plan ~at:k ~tear:tears.(Drbg.int fault_rng (Array.length tears));
  let finish () =
    probe ph ~run:(run ^ ":probe") ~violations d;
    Shard_store.close d.ss
  in
  let crash_and_check phase =
    incr crashes;
    Fault_plan.reset env.plan;
    crash_env env ~persist_prob ~rng:(fun m -> Drbg.int fault_rng m);
    let ok = reopen_and_check ~run:(run ^ ":" ^ phase) ~violations d in
    if ok then incr recoveries;
    ok
  in
  (* Run [workload]; a crashpoint beyond it closes cleanly and verifies
     the full state. *)
  let attempt ~run ~clean workload ~on_crash =
    match workload () with
    | () ->
        Fault_plan.reset env.plan;
        Shard_store.close d.ss;
        shadow_base d.sh;
        if reopen_and_check ~run:clean ~violations d then finish ()
    | exception Harness_violation (kind, detail) -> add violations run kind detail
    | exception Fault_plan.Crash_point -> on_crash ()
    | exception e -> add violations run "workload-exception" (Printexc.to_string e)
  in
  attempt ~run ~clean:(run ^ ":clean")
    (fun () -> ph.workload ~trace d)
    ~on_crash:(fun () ->
      if crash_and_check "A" then begin
        (* Odd seeds focus the second crashpoint on the start of the
           epilogue with a torn tear: the first durable commit after a
           reopen is where the counter's slot-targeting protocol is most
           exposed (a fresh handle has not yet written either slot). *)
        let counter_focus = Int.equal (seed_idx land 1) 1 in
        let k2 = Drbg.int fault_rng (if counter_focus then 24 else 120) in
        let tear2 = if counter_focus then Fault_plan.Torn else tears.(Drbg.int fault_rng (Array.length tears)) in
        Fault_plan.arm env.plan ~at:k2 ~tear:tear2;
        attempt ~run:(run ^ ":B") ~clean:(run ^ ":B-clean")
          (fun () -> run_epilogue ph ~trace d)
          ~on_crash:(fun () -> if crash_and_check "B" then finish ())
      end)

(* Every [stride]-th boundary x every seed, through [cell]. *)
let sweep_cells ?(progress = fun _ _ -> ()) ~boundaries ~seeds ~stride cell =
  let violations = ref [] in
  let runs = ref 0 and crashes = ref 0 and recoveries = ref 0 and crashpoints = ref 0 in
  let k = ref 0 in
  while !k < boundaries do
    progress !k boundaries;
    incr crashpoints;
    for seed_idx = 0 to seeds - 1 do
      incr runs;
      cell ~violations ~crashes ~recoveries ~k:!k ~seed_idx
    done;
    k := !k + stride
  done;
  {
    boundaries;
    crashpoints = !crashpoints;
    seeds;
    runs = !runs;
    crashes = !crashes;
    recoveries = !recoveries;
    violations = List.rev !violations;
  }

let sweep ph ?progress ~trace ~seeds ~stride () =
  sweep_cells ?progress ~boundaries:(record_boundaries ph ~trace) ~seeds ~stride (one_run ph ~trace)

let sweep_crashpoints = sweep plain
let sweep_group_commit = sweep group_commit
let sweep_commit_flush = sweep commit_flush
let sweep_demote = sweep demote

let sweep_shard_2pc ?progress ?shards ~trace ~seeds ~stride () =
  sweep (transfer ~who:"sweep_shard_2pc" shards) ?progress ~trace ~seeds ~stride ()

(* ------------------------------------------------------------------ *)
(* Tamper sweep *)

type tally = {
  mutable t_bytes : int;
  mutable t_flips : int;
  mutable t_detected : int;
  mutable t_harmless : int;
  mutable t_silent : int list;  (* offsets, newest first *)
}

let tally () = { t_bytes = 0; t_flips = 0; t_detected = 0; t_harmless = 0; t_silent = [] }

let tamper_report t =
  {
    image_bytes = t.t_bytes;
    flips = t.t_flips;
    detected = t.t_detected;
    harmless = t.t_harmless;
    silent = List.length t.t_silent;
    silent_offsets = List.rev t.t_silent;
  }

(* XOR [mask] into every [stride]-th byte of each shard image in turn and
   reopen the whole router. Detected ([Tamper_detected] /
   [Recovery_failed]) or harmless (state at an admissible boundary) are
   fine; wrong data without an exception is silent. *)
let flip_sweep t env sh ~stride ~mask ~off_tag =
  let db0 = Array.map US.Mem.snapshot env.db_mem in
  let ctr0 = Array.map US.Mem.snapshot env.ctr_mem in
  Array.iteri
    (fun s img ->
      let len = Bytes.length img in
      t.t_bytes <- t.t_bytes + len;
      let off = ref 0 in
      while !off < len do
        t.t_flips <- t.t_flips + 1;
        US.Mem.corrupt env.db_mem.(s) ~off:!off ~len:1 ~mask;
        (match open_store env with
        | exception Types.Tamper_detected _ -> t.t_detected <- t.t_detected + 1
        | exception Chunk_store.Recovery_failed _ -> t.t_detected <- t.t_detected + 1
        | _, ss -> (
            match match_candidates ss sh with
            | Ok _ -> t.t_harmless <- t.t_harmless + 1
            | Error m when String.starts_with ~prefix:"tamper" m -> t.t_detected <- t.t_detected + 1
            | Error _ -> t.t_silent <- (off_tag + (s * 1_000_000) + !off) :: t.t_silent));
        Array.iteri (fun i img -> US.Mem.restore env.db_mem.(i) img) db0;
        Array.iteri (fun i img -> US.Mem.restore env.ctr_mem.(i) img) ctr0;
        off := !off + stride
      done)
    db0

(* Two parts. Part 1 — committed image: run the phase, close cleanly and
   flip every shard image. At width >= 2 this covers each shard's
   decision-table chunk — its chain MAC and the width metadata — at rest.

   Part 2 (width >= 2 only) — in-doubt decision flips: crash the workload
   mid-trace at a few boundaries (most land inside a 2PC, between a
   participant's prepare and the final apply), keep {e every} write
   (persist_prob 1 — the richest image: staged prepares and live decision
   entries), flip bytes across the shard images and reopen. Recovery may
   detect the flip, or resolve the in-doubt transaction to {e some
   admissible boundary} (commit or presumed abort — the commit never
   returned); a flipped decision record that steers recovery to a state
   matching no admissible boundary is silent. *)
let tamper_sweep ph ~stride ~mask ~trace =
  let t = tally () in
  let env = make_env ph.config in
  let d = fresh_db env ~rng:(trace_rng ph trace) in
  ph.workload ~trace d;
  Shard_store.close d.ss;
  shadow_base d.sh;
  flip_sweep t env d.sh ~stride ~mask ~off_tag:0;
  if ph.config.Config.shards > 1 then begin
    let total = record_boundaries ph ~trace in
    List.iter
      (fun kp ->
        let env = make_env ph.config in
        let d = fresh_db env ~rng:(trace_rng ph trace) in
        Fault_plan.arm env.plan ~at:kp ~tear:Fault_plan.Applied;
        match ph.workload ~trace d with
        | () ->
            Fault_plan.reset env.plan;
            Shard_store.close d.ss
        | exception Fault_plan.Crash_point ->
            Fault_plan.reset env.plan;
            (* keep every write: the image retains staged prepares and any
               not-yet-cleaned decision entry *)
            crash_env env ~persist_prob:1.0 ~rng:(fun _ -> 0);
            flip_sweep t env d.sh ~stride:(stride * 5) ~mask ~off_tag:((kp + 1) * 100_000_000))
      [ total / 2; total * 3 / 4 ]
  end;
  tamper_report t

let sweep_tamper ?(stride = 7) ?(mask = 0x10) ~trace () = tamper_sweep plain ~stride ~mask ~trace

let sweep_shard_tamper ?(stride = 7) ?(mask = 0x10) ?shards ~trace () =
  tamper_sweep (transfer ~who:"sweep_shard_tamper" shards) ~stride ~mask ~trace

(* ------------------------------------------------------------------ *)
(* Replica-ingest sweep *)

module BK = Tdb_backup.Backup_store
module AS = Tdb_platform.Archival_store

(* A primary's archive built once per sweep: a bootstrap full, a run of
   incrementals, a mid-sequence full (the in-place re-bootstrap a stale
   follower gets) and more incrementals — with the primary's chunk state
   snapshotted at every backup boundary. The follower sweep replays these
   streams through {!Tdb_backup.Backup_store.apply_stream} and crashes the
   follower's stores at every write/sync boundary of the ingest. *)
type replica_fixture = {
  r_streams : string array;  (* archive streams, in application order *)
  r_ids : int array;  (* r_ids.(i) = backup id carried by stream i *)
  r_states : chunk_state array;  (* r_states.(b) = state after b streams; (0) = empty *)
  r_cids : (int, unit) Hashtbl.t;  (* every workload chunk id the primary used *)
}

let replica_backups_total = 6
let replica_mid_full = 4 (* this backup id is a full against a live follower *)
let replica_config = with_width 1 store_config

let build_replica_fixture ~trace : replica_fixture =
  let _, ss = create_store (make_env replica_config) in
  let _, archive = AS.open_mem () in
  let bs = BK.create ~secret ~archive ss in
  let model : chunk_state = Hashtbl.create 64 in
  let r_cids = Hashtbl.create 64 in
  let rng = Drbg.create ~seed:(trace.seed ^ ":replica") in
  let put cid data =
    Shard_store.write ss cid data;
    Hashtbl.replace model cid data;
    Hashtbl.replace r_cids cid ()
  in
  let n_base = trace.accounts + trace.tellers + trace.branches in
  let base = Array.init n_base (fun _ -> Shard_store.allocate ss) in
  Array.iteri (fun i cid -> put cid (pad (Printf.sprintf "rbase:%03d:%d" i (Drbg.int rng 1_000_000)))) base;
  Shard_store.commit ~durable:true ss;
  let boundaries = ref [] (* (id, state), newest first *) in
  let record id = boundaries := (id, Hashtbl.copy model) :: !boundaries in
  record (BK.backup_full bs);
  let fresh = Queue.create () in
  let txn = ref 0 in
  for b = 2 to replica_backups_total do
    for i = 1 to trace.durable_every do
      incr txn;
      let cid = base.(Drbg.int rng n_base) in
      put cid (pad (Printf.sprintf "rupd:%03d:%04d:%d" cid !txn (Drbg.int rng 10_000)));
      let c = Shard_store.allocate ss in
      put c (pad (Printf.sprintf "rhist:%04d" !txn));
      Queue.add c fresh;
      if Queue.length fresh > trace.history_keep then begin
        let old = Queue.pop fresh in
        Shard_store.deallocate ss old;
        Hashtbl.remove model old
      end;
      Shard_store.commit ~durable:(Int.equal i trace.durable_every) ss
    done;
    record (if Int.equal b replica_mid_full then BK.backup_full bs else BK.backup_incremental bs)
  done;
  let entries =
    AS.list archive
    |> List.filter_map (fun name ->
           match BK.parse_name name with
           | Some (id, _) -> (
               match AS.get archive ~name with Some s -> Some (id, s) | None -> None)
           | None -> None)
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let r_streams = Array.of_list (List.map snd entries) in
  let r_ids = Array.of_list (List.map fst entries) in
  let r_states = Array.make (Array.length r_streams + 1) (Hashtbl.create 0) in
  List.iteri (fun i (_, st) -> r_states.(i + 1) <- st) (List.rev !boundaries);
  Shard_store.close ss;
  { r_streams; r_ids; r_states; r_cids }

let replica_boundary_id fx b = if Int.equal b 0 then 0 else fx.r_ids.(b - 1)

(* A fresh follower: an empty store behind its own archive. *)
let follower env =
  let _, ss = create_store env in
  let _, f_archive = AS.open_mem () in
  (ss, f_archive, BK.create ~secret ~archive:f_archive ss)

(* Is the follower at backup boundary [b], chain state and contents
   alike? *)
let replica_at fx ss bs b =
  Int.equal (BK.chain_state bs).BK.last_id (replica_boundary_id fx b)
  && match state_matches ss fx.r_states.(b) fx.r_cids with Ok true -> true | _ -> false

(* One cell: crash the follower at ingest boundary [k] under a seeded
   persistence subset, reopen, and check the staged-apply oracle — the
   recovered follower must sit at exactly the boundary before or after the
   stream being applied (each apply is one durable commit: earlier
   boundaries are already durable, later ones were never issued) with a
   chain state matching its contents, and the remaining streams must then
   re-apply to convergence with the primary. *)
let replica_one_run ~fx ~violations ~crashes ~recoveries ~k ~seed_idx =
  let env = make_env replica_config in
  let fault_rng = Drbg.create ~seed:(Printf.sprintf "replica:fault:%d:%d" k seed_idx) in
  let persist_prob = persist_probs.(seed_idx mod Array.length persist_probs) in
  let run = Printf.sprintf "replica k=%d seed=%d" k seed_idx in
  let ss, f_archive, bs = follower env in
  let n = Array.length fx.r_streams in
  (* apply streams [from, n) and require convergence with the primary *)
  let converge ss bs ~from ~what =
    match
      for j = from to n - 1 do
        ignore (BK.apply_stream bs fx.r_streams.(j))
      done
    with
    | exception e -> add violations run "replica-resume" (Printexc.to_string e)
    | () -> (
        match state_matches ss fx.r_states.(n) fx.r_cids with
        | Ok true ->
            if not (Int.equal (BK.chain_state bs).BK.last_id (replica_boundary_id fx n)) then
              add violations run "replica-final-chain" ("chain state disagrees " ^ what)
        | Ok false -> add violations run "replica-diverged" ("follower does not match primary " ^ what)
        | Error m -> add violations run "tamper-during-check" m)
  in
  Fault_plan.arm env.plan ~at:k ~tear:tears.(Drbg.int fault_rng (Array.length tears));
  let applying = ref 0 in
  match
    for i = 0 to n - 1 do
      applying := i;
      ignore (BK.apply_stream bs fx.r_streams.(i))
    done
  with
  | () ->
      (* crashpoint beyond the ingest: the live follower must equal the
         primary's newest boundary *)
      Fault_plan.reset env.plan;
      converge ss bs ~from:n ~what:"after full ingest";
      Shard_store.close ss
  | exception BK.Invalid_backup m -> add violations run "replica-live-reject" m
  | exception Harness_violation (kind, detail) -> add violations run kind detail
  | exception e when not (match e with Fault_plan.Crash_point -> true | _ -> false) ->
      add violations run "workload-exception" (Printexc.to_string e)
  | exception Fault_plan.Crash_point -> (
      incr crashes;
      Fault_plan.reset env.plan;
      crash_env env ~persist_prob ~rng:(fun m -> Drbg.int fault_rng m);
      match open_store env with
      | exception Types.Tamper_detected m -> add violations run "false-tamper" m
      | exception Chunk_store.Recovery_failed m -> add violations run "recovery-failed" m
      | exception e -> add violations run "recovery-exception" (Printexc.to_string e)
      | _, ss2 ->
          incr recoveries;
          let bs2 = BK.create ~secret ~archive:f_archive ss2 in
          let i = !applying in
          let st = (BK.chain_state bs2).BK.last_id in
          let b =
            if Int.equal st (replica_boundary_id fx (i + 1)) then Some (i + 1)
            else if Int.equal st (replica_boundary_id fx i) then Some i
            else None
          in
          (match b with
          | None ->
              add violations run "replica-chain-state"
                (Printf.sprintf "recovered chain last_id %d is neither boundary %d nor %d" st
                   (replica_boundary_id fx i)
                   (replica_boundary_id fx (i + 1)))
          | Some b -> (
              match state_matches ss2 fx.r_states.(b) fx.r_cids with
              | Error m -> add violations run "tamper-during-check" m
              | Ok false ->
                  add violations run "replica-torn-apply"
                    (Printf.sprintf "chain state says boundary %d but chunk contents disagree" b)
              | Ok true -> converge ss2 bs2 ~from:b ~what:"after resume"));
          Shard_store.close ss2)

let sweep_replica ?progress ~trace ~seeds ~stride () =
  let fx = build_replica_fixture ~trace in
  let boundaries =
    let env = make_env replica_config in
    let ss, _, bs = follower env in
    let n = count_boundaries env (fun () -> Array.iter (fun s -> ignore (BK.apply_stream bs s)) fx.r_streams) in
    Shard_store.close ss;
    n
  in
  sweep_cells ?progress ~boundaries ~seeds ~stride (replica_one_run ~fx)

(* Stream-tamper sweep: flip every [stride]-th byte of each archive
   stream (and truncate it at four prefix lengths) before feeding it to a
   follower positioned just before that stream. Every damaged frame must
   be rejected with the follower still readable at its previous boundary,
   and the genuine sequence must then still apply to convergence; a
   damaged frame that is accepted is only tolerable if it leaves the
   follower exactly at the next boundary. *)
let sweep_replica_tamper ?(stride = 37) ?(mask = 0x10) ~trace () =
  let fx = build_replica_fixture ~trace in
  let n = Array.length fx.r_streams in
  let t = tally () in
  t.t_bytes <- Array.fold_left (fun a s -> a + String.length s) 0 fx.r_streams;
  for i = 0 to n - 1 do
    let ss, _, bs = follower (make_env replica_config) in
    for j = 0 to i - 1 do
      ignore (BK.apply_stream bs fx.r_streams.(j))
    done;
    let len = String.length fx.r_streams.(i) in
    let mark_silent off = t.t_silent <- ((i * 1_000_000) + off) :: t.t_silent in
    (* returns true if the follower advanced past boundary [i] *)
    let attempt stream off =
      t.t_flips <- t.t_flips + 1;
      match BK.apply_stream bs stream with
      | _ ->
          if replica_at fx ss bs (i + 1) then t.t_harmless <- t.t_harmless + 1 else mark_silent off;
          true
      | exception BK.Invalid_backup _ | exception Tdb_pickle.Pickle.Error _ ->
          if replica_at fx ss bs i then t.t_detected <- t.t_detected + 1 else mark_silent off;
          false
    in
    let advanced = ref false in
    let off = ref 0 in
    while (not !advanced) && !off < len do
      let b = Bytes.of_string fx.r_streams.(i) in
      Bytes.set b !off (Char.chr (Char.code (Bytes.get b !off) lxor mask));
      advanced := attempt (Bytes.to_string b) !off;
      off := !off + stride
    done;
    (* torn frames: truncation at four prefix lengths, empty included *)
    List.iter
      (fun quarter ->
        if not !advanced then
          let l = len * quarter / 4 in
          if l < len then advanced := attempt (String.sub fx.r_streams.(i) 0 l) (-(l + 1)))
      [ 0; 1; 2; 3 ];
    (* after surviving every rejection the genuine tail must still apply *)
    if not !advanced then begin
      match
        for j = i to n - 1 do
          ignore (BK.apply_stream bs fx.r_streams.(j))
        done
      with
      | () -> if not (replica_at fx ss bs n) then mark_silent 999_998
      | exception _ -> mark_silent 999_999
    end;
    Shard_store.close ss
  done;
  tamper_report t

(* ------------------------------------------------------------------ *)
(* Every sweep, and the JSON summary *)

let sweeps ?progress ?shards ~trace ~seeds ~stride ~tamper_stride ~mask () =
  let crash f () = Crash (f ?progress ~trace ~seeds ~stride ()) in
  [
    ("crash", crash sweep_crashpoints);
    ("group_commit", crash sweep_group_commit);
    ("commit_flush", crash sweep_commit_flush);
    ("demote", crash sweep_demote);
    ("replica", crash sweep_replica);
    ("shard_2pc", crash (sweep_shard_2pc ?shards));
    ("tamper", fun () -> Tamper (sweep_tamper ~stride:tamper_stride ~mask ~trace ()));
    ("replica_tamper", fun () -> Tamper (sweep_replica_tamper ~mask ~trace ()));
    ("shard_tamper", fun () -> Tamper (sweep_shard_tamper ~stride:tamper_stride ~mask ?shards ~trace ()));
  ]

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_summary ~trace reports =
  let entry (key, r) =
    match r with
    | Crash r ->
        Printf.sprintf
          "  \"%s\": {\"boundaries\": %d, \"crashpoints\": %d, \"seeds\": %d, \"runs\": %d, \"crashes\": %d, \"recoveries\": %d, \"violations\": [%s]}"
          key r.boundaries r.crashpoints r.seeds r.runs r.crashes r.recoveries
          (String.concat ", "
             (List.map
                (fun v ->
                  Printf.sprintf "{\"run\": \"%s\", \"kind\": \"%s\", \"detail\": \"%s\"}" (json_escape v.v_run)
                    (json_escape v.v_kind) (json_escape v.v_detail))
                r.violations))
    | Tamper r ->
        Printf.sprintf
          "  \"%s\": {\"image_bytes\": %d, \"flips\": %d, \"detected\": %d, \"harmless\": %d, \"silent\": %d, \"silent_offsets\": [%s]}"
          key r.image_bytes r.flips r.detected r.harmless r.silent
          (String.concat ", " (List.map string_of_int r.silent_offsets))
  in
  Printf.sprintf "{\n  \"trace\": {\"seed\": \"%s\", \"txns\": %d, \"accounts\": %d, \"tellers\": %d, \"branches\": %d},\n%s\n}"
    (json_escape trace.seed) trace.txns trace.accounts trace.tellers trace.branches
    (String.concat ",\n" (List.map entry reports))
