(** Crashpoint sweep harness (see DESIGN.md, "Crash model").

    The harness replays a deterministic chunk workload through a
    {!Chunk_store} and crashes it — via {!Fault_plan} — at {e every}
    write/sync boundary of its database store and its one-way-counter
    store, under several seeded choices of which unsynced writes survive
    ({!Tdb_platform.Untrusted_store.Mem.crash}). After each crash it
    reopens the database and checks invariant oracles against a shadow
    model:

    - {b durability}: the recovered chunk state equals the shadow state at
      some admissible commit boundary — no earlier than the last commit
      known durable (durable commit returned, or a checkpoint was observed
      after a nondurable commit returned), no later than the last commit
      issued; in particular every durably committed batch is fully visible
      and every batch is all-or-nothing;
    - {b honesty}: an honest crash never raises [Tamper_detected] (no
      false tampering) and never loses the anchor ([Recovery_failed]);
    - {b counter monotonicity}: the one-way counter never reads below the
      highest value previously observed after a completed operation;
    - {b usability}: after recovery the store accepts a write + durable
      commit and its utilization accounting stays within bounds.

    What varies between sweeps is the {e phase}: the phase-A workload.
    Each crashed run continues into a second phase: an epilogue workload
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
   Aes128/Sha1 keeps thousands of runs fast. *)
let store_config =
  {
    Config.default with
    Config.cipher = Config.Aes128;
    hash = Config.Sha1;
    segment_size = 2048;
    anchor_slot_size = 1024;
    initial_segments = 4;
    checkpoint_residual_bytes = 4 * 2048;
    clean_batch = 2;
  }

let secret = Tdb_platform.Secret_store.of_seed "crashfuzz-device"

(* ------------------------------------------------------------------ *)
(* Reports *)

type violation = { v_run : string; v_kind : string; v_detail : string }

type crash_report = {
  boundaries : int;  (** write/sync boundaries in the recorded trace *)
  checkpoints : int;  (** checkpoints in the recorded trace *)
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

(* The database store and the one-way-counter store, both instrumented by
   ONE fault plan, so the boundary counter interleaves their writes and
   syncs (devices sharing one power supply). *)
type env = {
  db_mem : US.Mem.handle;
  db : US.t;  (* instrumented *)
  ctr_mem : US.Mem.handle;
  ctr : US.t;  (* instrumented *)
  plan : Fault_plan.t;
}

let make_env () =
  let plan = Fault_plan.create () in
  let db_mem, db = US.open_mem () in
  let ctr_mem, ctr = US.open_mem () in
  { db_mem; db = Fault_plan.instrument plan db; ctr_mem; ctr = Fault_plan.instrument plan ctr; plan }

let create_store env =
  let ctr = OWC.open_store env.ctr in
  (ctr, Chunk_store.create ~config:store_config ~secret ~counter:ctr env.db)

let open_store env =
  let ctr = OWC.open_store env.ctr in
  (ctr, Chunk_store.open_existing ~config:store_config ~secret ~counter:ctr env.db)

(* Lose a seeded subset of both stores' unsynced writes. *)
let crash_env env ~persist_prob ~rng =
  US.Mem.crash ~persist_prob ~rng env.db_mem;
  US.Mem.crash ~persist_prob ~rng env.ctr_mem

(* Count the write/sync boundaries [f] issues, with the plan armed past
   the horizon. *)
let count_boundaries env f =
  Fault_plan.arm env.plan ~at:max_int ~tear:Fault_plan.Skip;
  f ();
  let n = Fault_plan.ops env.plan in
  Fault_plan.reset env.plan;
  n

(* One run's view of the database: the live store and counter (replaced
   on every reopen), the shadow, the trace DRBG (phase A, then the
   epilogue) and the counter floor. *)
type db = {
  env : env;
  sh : shadow;
  rng : Drbg.t;
  mutable floor : int64;
  mutable cs : Chunk_store.t;
  mutable ctr : OWC.t;
  mutable cp_seen : int;
  mutable commits : int;  (* commits and barriers outside a staged barrier *)
}

let fresh_db env ~rng =
  let ctr, cs = create_store env in
  let sh = shadow_create () in
  shadow_base sh;
  { env; sh; rng; floor = OWC.read ctr; cs; ctr; cp_seen = 0; commits = 0 }

(* Has the store checkpointed since the last call? *)
let new_checkpoint d =
  let cps = (Chunk_store.stats d.cs).Chunk_store.checkpoints in
  let seen = cps > d.cp_seen in
  d.cp_seen <- cps;
  seen

(* Every commit up to [upto] is known durable: raise [durable_lo] and the
   counter floor. *)
let mark_durable d upto =
  if upto > d.sh.durable_lo then d.sh.durable_lo <- upto;
  let hw = OWC.read d.ctr in
  if Int64.compare hw d.floor > 0 then d.floor <- hw;
  ignore (new_checkpoint d)

let cadence ~every cs n = if n mod every = 0 then Chunk_store.checkpoint ~reserve:true cs

(* Beside the residual bound, checkpoint after every 8th commit or barrier;
   commits inside a staged barrier, where none may run, do not count. *)
let count_commit ?(staged = false) d =
  if not staged then (d.commits <- d.commits + 1; cadence ~every:8 d.cs d.commits)

(* Commit the open batch, snapshotting the shadow at the commit boundary
   and tracking which boundary is known durable. A checkpoint observed
   after a nondurable commit promotes every earlier commit to durable
   (conservatively: up to the previous boundary — the checkpoint may have
   run before this batch was appended). *)
let commit_shadow ?staged ~durable d =
  let sh = d.sh in
  sh.issued <- sh.issued + 1;
  Hashtbl.replace sh.states sh.issued (Hashtbl.copy sh.model);
  Chunk_store.commit ~durable d.cs;
  if durable then mark_durable d sh.issued
  else if new_checkpoint d then begin
    let c = sh.issued - 1 in
    if c > sh.durable_lo then sh.durable_lo <- c
  end;
  count_commit ?staged d

(* ------------------------------------------------------------------ *)
(* Workloads *)

let record_len = 96

let pad s =
  let n = String.length s in
  if n >= record_len then String.sub s 0 record_len else s ^ String.make (record_len - n) '.'

let put d cid data =
  Chunk_store.write d.cs cid data;
  shadow_write d.sh cid data

let drop d cid =
  Chunk_store.deallocate d.cs cid;
  shadow_dealloc d.sh cid

let check_read d cid =
  let got = Chunk_store.read d.cs cid in
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
  let base = Array.init n_base (fun _ -> Chunk_store.allocate d.cs) in
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
    let h = Chunk_store.allocate d.cs in
    put d h (pad (Printf.sprintf "hist:%04d:%d:%d:%d:%d" i a t b delta));
    Queue.add h history;
    if Queue.length history > trace.history_keep then drop d (Queue.pop history);
    commit_shadow ~durable:(Int.equal (i mod trace.durable_every) 0) d
  done

(* Group-commit phase A: batches of nondurable session commits made
   durable by a *staged* barrier ({!Chunk_store.barrier_begin} /
   [barrier_sync] / [barrier_finish]), with further commits landing
   inside the sync window and between sync and finish — the exact
   interleaving the object store's group commit produces, replayed
   deterministically so the sweep can crash at every boundary of a
   coalesced multi-session barrier. In a seeded half of the rounds the
   leader carries its own batch, which [barrier_begin] stages under the
   barrier's durable record. Window commits land after that record, so
   they are not covered by it: [durable_lo] advances only to the commits
   issued before [barrier_begin]. This also exercises the barrier's
   segment hold ({!Tdb_chunk.Log.hold}) — a window commit may obsolete a
   chunk version that recovery (to the barrier point) still needs. *)
let run_phase_gc ~trace d =
  let base = load_base ~trace d in
  let n_base = Array.length base in
  (* Two segment-sized chunks: rewriting one obsoletes (almost) a whole
     segment at once, so window commits regularly empty segments — the
     reclamation case the barrier's hold must keep from the free list. *)
  let fat_len = store_config.Config.segment_size * 3 / 4 in
  let fat = Array.init 2 (fun _ -> Chunk_store.allocate d.cs) in
  let fat_data i v =
    let s = Printf.sprintf "fat:%d:v:%04d:" i v in
    s ^ String.make (fat_len - String.length s) (Char.chr (Char.code 'a' + (v mod 26)))
  in
  Array.iteri (fun i cid -> put d cid (fat_data i 0)) fat;
  commit_shadow ~durable:true d;
  let txn = ref 0 in
  let session_write tag =
    incr txn;
    if Int.equal (Drbg.int d.rng 3) 0 then begin
      let i = Drbg.int d.rng (Array.length fat) in
      update d fat.(i) (fat_data i !txn)
    end
    else begin
      let cid = base.(Drbg.int d.rng n_base) in
      update d cid (pad (Printf.sprintf "%s:%03d:txn:%04d:%d" tag cid !txn (Drbg.int d.rng 10_000)))
    end
  in
  let session_commit ?staged tag =
    session_write tag;
    commit_shadow ?staged ~durable:false d
  in
  while !txn < trace.txns do
    (* sessions that committed before the leader took the barrier *)
    for _ = 0 to Drbg.int d.rng 3 do
      session_commit "gc"
    done;
    if Int.equal (Drbg.int d.rng 2) 0 then begin
      (* the leader's own batch: its commit boundary is the barrier's *)
      session_write "lead";
      d.sh.issued <- d.sh.issued + 1;
      Hashtbl.replace d.sh.states d.sh.issued (Hashtbl.copy d.sh.model)
    end;
    let covered = d.sh.issued in
    let tok = Chunk_store.barrier_begin d.cs in
    (* sessions landing while the leader syncs: after the barrier record *)
    for _ = 1 to Drbg.int d.rng 6 do
      session_commit ~staged:true "win"
    done;
    Chunk_store.barrier_sync d.cs tok;
    (* the state lock can be retaken between sync and finish *)
    if Int.equal (Drbg.int d.rng 2) 0 then session_commit ~staged:true "gap";
    Chunk_store.barrier_finish d.cs tok;
    mark_durable d covered;
    count_commit d
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
      let c = Chunk_store.allocate d.cs in
      put d c (pad (Printf.sprintf "flunew:%04d:%d" i j));
      Queue.add c fresh
    done;
    while Queue.length fresh > trace.history_keep do
      drop d (Queue.pop fresh)
    done;
    (* all-durable: each iteration is exactly one coalesced commit flush *)
    commit_shadow ~durable:true d
  done

(* Cleaning phase A: drive explicit cleaning passes so the sweep crashes
   at every I/O boundary of a pass — mid-relocation, between a survivor's
   re-append and the map update, and inside the checkpoint that seals the
   pass. A skewed churn keeps segments garbage-heavy while the cold tail
   survives each pass, so every {!Chunk_store.clean} call re-appends
   survivors at the tail. [clean] is logical-state-neutral (chunk
   versions are preserved across relocation), so the shadow oracles apply
   unchanged; it ends in a checkpoint, which promotes every issued commit
   to durable and bumps the one-way counter. *)
let run_phase_clean ~trace d =
  let base = load_base ~trace d in
  (* the hot head: overwrites concentrate here, so the segments holding
     the cold tail accumulate garbage around live survivors — the exact
     shape a cleaning pass relocates *)
  let hot = max 1 (Array.length base / 3) in
  for i = 1 to trace.txns do
    for j = 1 to 2 + Drbg.int d.rng 3 do
      let cid = base.(Drbg.int d.rng hot) in
      update d cid (pad (Printf.sprintf "cln:%03d:txn:%04d:%d:%d" cid i j (Drbg.int d.rng 10_000)))
    done;
    commit_shadow ~durable:(Int.equal (i mod trace.durable_every) 0) d;
    if Int.equal (i mod 3) 0 then begin
      Chunk_store.clean ~max_segments:store_config.Config.clean_batch d.cs;
      (* checkpoint + pass + checkpoint: everything issued is now durable *)
      mark_durable d d.sh.issued
    end
  done

let trace_rng trace = Drbg.create ~seed:(trace.seed ^ ":trace")

(* Phase B: generic epilogue against whatever state recovery produced —
   rewrite existing chunks, allocate new ones, occasionally deallocate. *)
let run_epilogue ~trace d =
  for i = 1 to trace.epilogue_txns do
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) d.sh.model [] in
    let keys = Array.of_list (List.sort Int.compare keys) in
    let nkeys = Array.length keys in
    if nkeys > 0 then begin
      let cid = keys.(Drbg.int d.rng nkeys) in
      update d cid (pad (Printf.sprintf "epi:%03d:txn:%04d" cid i))
    end;
    let c = Chunk_store.allocate d.cs in
    put d c (pad (Printf.sprintf "epinew:%04d" i));
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
let state_matches cs st all_cids =
  Hashtbl.fold
    (fun cid () acc ->
      match acc with
      | Error _ | Ok false -> acc
      | Ok true -> (
          match Hashtbl.find_opt st cid with
          | Some want -> (
              match Chunk_store.read cs cid with
              | got -> Ok (String.equal got want)
              | exception Types.Not_written _ -> Ok false
              | exception Types.Not_allocated _ -> Ok false
              | exception Types.Tamper_detected m -> Error m)
          | None -> (
              match Chunk_store.read cs cid with
              | _ -> Ok false
              | exception Types.Not_written _ -> Ok true
              | exception Types.Not_allocated _ -> Ok true
              | exception Types.Tamper_detected m -> Error m)))
    all_cids (Ok true)

(* Try every admissible boundary, newest first. *)
let match_candidates cs sh =
  let rec go d =
    if d < sh.durable_lo then Error "recovered state matches no admissible commit boundary"
    else
      match Hashtbl.find_opt sh.states d with
      | None -> go (d - 1)
      | Some st -> (
          match state_matches cs st sh.all_cids with
          | Ok true -> Ok d
          | Ok false -> go (d - 1)
          | Error m -> Error ("tamper during state check: " ^ m))
  in
  go sh.issued

(* Reopen the store after a crash and run the recovery oracles; on
   success the reopened store replaces [d.cs]. *)
let reopen_and_check ~run ~violations d =
  match open_store d.env with
  | exception Types.Tamper_detected m -> add violations run "false-tamper" m; false
  | exception Chunk_store.Recovery_failed m -> add violations run "recovery-failed" m; false
  | exception e -> add violations run "recovery-exception" (Printexc.to_string e); false
  | ctr, cs ->
      d.cs <- cs;
      d.ctr <- ctr;
      d.cp_seen <- 0;
      let hw = OWC.read ctr in
      if Int64.compare hw d.floor < 0 then
        add violations run "counter-rollback" (Printf.sprintf "read %Ld, floor %Ld" hw d.floor);
      if Int64.compare hw d.floor > 0 then d.floor <- hw;
      (match match_candidates cs d.sh with
      | Ok b -> shadow_reset_to d.sh b
      | Error detail ->
          add violations run "durability-violation" detail;
          (* keep going from the live model so later oracles still run *)
          shadow_base d.sh);
      true

(* Post-recovery usability probe: a write and a durable commit must
   succeed, serve the data back, and keep the utilization accounting
   sane. *)
let probe ~run ~violations d =
  match
    let c = Chunk_store.allocate d.cs in
    put d c (pad (Printf.sprintf "probe:%06d" c));
    commit_shadow ~durable:true d;
    (let got = Chunk_store.read d.cs c in
     match Hashtbl.find_opt d.sh.model c with
     | Some want when String.equal want got -> ()
     | _ -> add violations run "probe-read-mismatch" (Printf.sprintf "chunk %d" c));
    let u = Chunk_store.utilization d.cs in
    if u < 0.0 || u > 1.0001 then add violations run "utilization-out-of-range" (Printf.sprintf "%f" u);
    let live = Chunk_store.live_bytes d.cs and cap = Chunk_store.capacity d.cs in
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
   region, and the checkpoints in it. *)
let record_boundaries workload ~trace =
  let env = make_env () in
  let d = fresh_db env ~rng:(trace_rng trace) in
  let n = count_boundaries env (fun () -> workload ~trace d) in
  let cps = (Chunk_store.stats d.cs).Chunk_store.checkpoints in
  Chunk_store.close d.cs;
  (n, cps)

(* One sweep cell: crash phase A at boundary [k], recover under the
   seeded persistence subset, then run the epilogue with a second seeded
   crashpoint, recover again and probe. *)
let one_run workload ~trace ~violations ~crashes ~recoveries ~k ~seed_idx =
  let env = make_env () in
  let fault_rng = Drbg.create ~seed:(Printf.sprintf "%s:fault:%d:%d" trace.seed k seed_idx) in
  let persist_prob = persist_probs.(seed_idx mod Array.length persist_probs) in
  let run = Printf.sprintf "k=%d seed=%d" k seed_idx in
  let d = fresh_db env ~rng:(trace_rng trace) in
  Fault_plan.arm env.plan ~at:k ~tear:tears.(Drbg.int fault_rng (Array.length tears));
  let finish () =
    probe ~run:(run ^ ":probe") ~violations d;
    Chunk_store.close d.cs
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
        Chunk_store.close d.cs;
        shadow_base d.sh;
        if reopen_and_check ~run:clean ~violations d then finish ()
    | exception Harness_violation (kind, detail) -> add violations run kind detail
    | exception Fault_plan.Crash_point -> on_crash ()
    | exception e -> add violations run "workload-exception" (Printexc.to_string e)
  in
  attempt ~run ~clean:(run ^ ":clean")
    (fun () -> workload ~trace d)
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
          (fun () -> run_epilogue ~trace d)
          ~on_crash:(fun () -> if crash_and_check "B" then finish ())
      end)

(* Every [stride]-th boundary x every seed, through [cell]. *)
let sweep_cells ?(progress = fun _ _ -> ()) ~boundaries:(boundaries, checkpoints) ~seeds ~stride cell =
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
    checkpoints;
    crashpoints = !crashpoints;
    seeds;
    runs = !runs;
    crashes = !crashes;
    recoveries = !recoveries;
    violations = List.rev !violations;
  }

let sweep workload ?progress ~trace ~seeds ~stride () =
  sweep_cells ?progress ~boundaries:(record_boundaries workload ~trace) ~seeds ~stride (one_run workload ~trace)

let sweep_crashpoints = sweep run_phase_a
let sweep_group_commit = sweep run_phase_gc
let sweep_commit_flush = sweep run_phase_flush
let sweep_clean = sweep run_phase_clean

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

(* Run the phase, close cleanly, then XOR [mask] into every [stride]-th
   byte of the committed image and reopen. Detected ([Tamper_detected] /
   [Recovery_failed]) or harmless (state at an admissible boundary) are
   fine; wrong data without an exception is silent. *)
let tamper_sweep workload ~stride ~mask ~trace =
  let t = tally () in
  let env = make_env () in
  let d = fresh_db env ~rng:(trace_rng trace) in
  workload ~trace d;
  Chunk_store.close d.cs;
  shadow_base d.sh;
  let db0 = US.Mem.snapshot env.db_mem and ctr0 = US.Mem.snapshot env.ctr_mem in
  let len = Bytes.length db0 in
  t.t_bytes <- len;
  let off = ref 0 in
  while !off < len do
    t.t_flips <- t.t_flips + 1;
    US.Mem.corrupt env.db_mem ~off:!off ~len:1 ~mask;
    (match open_store env with
    | exception Types.Tamper_detected _ -> t.t_detected <- t.t_detected + 1
    | exception Chunk_store.Recovery_failed _ -> t.t_detected <- t.t_detected + 1
    | _, cs -> (
        match match_candidates cs d.sh with
        | Ok _ -> t.t_harmless <- t.t_harmless + 1
        | Error m when String.starts_with ~prefix:"tamper" m -> t.t_detected <- t.t_detected + 1
        | Error _ -> t.t_silent <- !off :: t.t_silent));
    US.Mem.restore env.db_mem db0;
    US.Mem.restore env.ctr_mem ctr0;
    off := !off + stride
  done;
  tamper_report t

let sweep_tamper ?(stride = 7) ?(mask = 0x10) ~trace () = tamper_sweep run_phase_a ~stride ~mask ~trace

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

let build_replica_fixture ~trace : replica_fixture =
  let _, cs = create_store (make_env ()) in
  let _, archive = AS.open_mem () in
  let bs = BK.create ~secret ~archive cs in
  let model : chunk_state = Hashtbl.create 64 in
  let r_cids = Hashtbl.create 64 in
  let rng = Drbg.create ~seed:(trace.seed ^ ":replica") in
  let put cid data =
    Chunk_store.write cs cid data;
    Hashtbl.replace model cid data;
    Hashtbl.replace r_cids cid ()
  in
  let n_base = trace.accounts + trace.tellers + trace.branches in
  let base = Array.init n_base (fun _ -> Chunk_store.allocate cs) in
  Array.iteri (fun i cid -> put cid (pad (Printf.sprintf "rbase:%03d:%d" i (Drbg.int rng 1_000_000)))) base;
  Chunk_store.commit ~durable:true cs;
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
      let c = Chunk_store.allocate cs in
      put c (pad (Printf.sprintf "rhist:%04d" !txn));
      Queue.add c fresh;
      if Queue.length fresh > trace.history_keep then begin
        let old = Queue.pop fresh in
        Chunk_store.deallocate cs old;
        Hashtbl.remove model old
      end;
      Chunk_store.commit ~durable:(Int.equal i trace.durable_every) cs
    done;
    record (if Int.equal b replica_mid_full then BK.backup_full bs else BK.backup_incremental bs)
  done;
  let entries =
    BK.index archive ~after:0
    |> List.filter_map (fun (id, name) -> Option.map (fun s -> (id, s)) (AS.get archive ~name))
  in
  let r_streams = Array.of_list (List.map snd entries) in
  let r_ids = Array.of_list (List.map fst entries) in
  let r_states = Array.make (Array.length r_streams + 1) (Hashtbl.create 0) in
  List.iteri (fun i (_, st) -> r_states.(i + 1) <- st) (List.rev !boundaries);
  Chunk_store.close cs;
  { r_streams; r_ids; r_states; r_cids }

let replica_boundary_id fx b = if Int.equal b 0 then 0 else fx.r_ids.(b - 1)

(* A fresh follower: an empty store behind its own archive. *)
let follower env =
  let _, cs = create_store env in
  let _, f_archive = AS.open_mem () in
  (cs, f_archive, BK.create ~secret ~archive:f_archive cs)

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
  let env = make_env () in
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
      Chunk_store.close ss
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
          Chunk_store.close ss2)

let sweep_replica ?progress ~trace ~seeds ~stride () =
  let fx = build_replica_fixture ~trace in
  let boundaries =
    let env = make_env () in
    let ss, _, bs = follower env in
    let n = count_boundaries env (fun () -> Array.iter (fun s -> ignore (BK.apply_stream bs s)) fx.r_streams) in
    let cps = (Chunk_store.stats ss).Chunk_store.checkpoints in
    Chunk_store.close ss;
    (n, cps)
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
    let ss, _, bs = follower (make_env ()) in
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
    Chunk_store.close ss
  done;
  tamper_report t

(* ------------------------------------------------------------------ *)
(* Every sweep, and the JSON summary *)

let sweeps ?progress ~trace ~seeds ~stride ~tamper_stride ~mask () =
  let crash f () = Crash (f ?progress ~trace ~seeds ~stride ()) in
  [
    ("crash", crash sweep_crashpoints);
    ("group_commit", crash sweep_group_commit);
    ("commit_flush", crash sweep_commit_flush);
    ("clean", crash sweep_clean);
    ("replica", crash sweep_replica);
    ("tamper", fun () -> Tamper (sweep_tamper ~stride:tamper_stride ~mask ~trace ()));
    ("replica_tamper", fun () -> Tamper (sweep_replica_tamper ~mask ~trace ()));
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
          "  \"%s\": {\"boundaries\": %d, \"checkpoints\": %d, \"crashpoints\": %d, \"seeds\": %d, \"runs\": %d, \"crashes\": %d, \"recoveries\": %d, \"violations\": [%s]}"
          key r.boundaries r.checkpoints r.crashpoints r.seeds r.runs r.crashes r.recoveries
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
