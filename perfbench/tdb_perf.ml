(* tdb_perf: wall-clock workloads on file-backed TDB stores.

   One run = set up the store (several times, for setup_s), warm up and
   crash-copy the store files, drive the workload closed-loop for
   --seconds of op time, time the reopen of the copies, check the outputs against the benchmark's own model, crash and reopen
   the store and check again, then print the metrics as one JSON line. With --trace 1 the
   measured phase alternates untraced and traced windows and the JSON line
   carries the per-layer split instead. See perfbench/README.md. *)

open Tdb_platform
open Tdb_chunk
open Tdb_objstore
open Tdb_collection
module W = Tdb_tpcb.Workload
module S = Tdb_perfbench.Perf_stats
module T = Tdb_perfbench.Perf_trace

let now = T.now

(* {1 Arguments} *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref false
let dir = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME tpcb | lookup");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Int (fun n -> trace := n <> 0), "0|1 per-layer traced run");
      ("--dir", Arg.Set_string dir, "DIR scratch directory for the stores (must exist, emptied by the caller)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "tdb_perf --workload NAME --seed N --seconds S --trace 0|1 --dir DIR"

let info fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

(* {1 Files} *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir name =
  let d = Filename.concat !dir name in
  rm_rf d;
  Sys.mkdir d 0o700;
  d

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  let buf = Bytes.create 65536 in
  let rec go () =
    let n = input ic buf 0 65536 in
    if n > 0 then begin
      output oc buf 0 n;
      go ()
    end
  in
  go ();
  close_in ic;
  close_out oc

let file_size path = (Unix.stat path).Unix.st_size

(* {1 Stores} *)

let secret = Secret_store.of_seed "perfbench-device"

type store = { cs : Shard_store.t; raw : Untrusted_store.t; sdir : string }

(* The stores belong on a memory-backed file system, where fsync returns
   at once; the benchmark may write only inside its checkout, which can sit
   on a disk whose flush latency drifted by a third between runs. So the
   files take every pread and pwrite, and a sync is counted (and traced) but
   not passed to the device: a process crash still finds every write in the
   page cache, which is the crash the recovery measurement replays. *)
let no_flush (u : Untrusted_store.t) : Untrusted_store.t =
  let st = u.Untrusted_store.stats in
  { u with Untrusted_store.sync = (fun () -> st.Untrusted_store.syncs <- st.Untrusted_store.syncs + 1) }

(* A one-shard store over [sdir]/db with its one-way counter in
   [sdir]/counter: the shipped file-backed implementations, wrapped so each
   call is a span when tracing is on. *)
let open_store ~create ~config sdir =
  let raw = Untrusted_store.open_file (Filename.concat sdir "db") in
  let counter =
    T.wrap_counter (One_way_counter.open_store (no_flush (Untrusted_store.open_file (Filename.concat sdir "counter"))))
  in
  let mk = if create then Shard_store.create else Shard_store.open_existing in
  { cs = mk ~config ~secret ~counters:[| counter |] [| T.wrap_store (no_flush raw) |]; raw; sdir }

(* Abandon a store without a clean close (no final checkpoint), as a crash
   would; its files stay as the last write left them. *)
let crash (s : store) = Untrusted_store.close s.raw

(* {1 Measurement} *)

(* A growable buffer of floats outside the OCaml heap, so the samples a
   run keeps do not count in peak_heap_mb. *)
module Fbuf = struct
  open Bigarray

  type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create float64 c_layout 4096; n = 0 }

  let push b x =
    if b.n = Array1.dim b.a then begin
      let a = Array1.create float64 c_layout (2 * b.n) in
      Array1.blit b.a (Array1.sub a 0 b.n);
      b.a <- a
    end;
    b.a.{b.n} <- x;
    b.n <- b.n + 1

  let clear b = b.n <- 0
  let to_array b = Array.init b.n (fun i -> b.a.{i})

  let sum b =
    let s = ref 0. in
    for i = 0 to b.n - 1 do
      s := !s +. b.a.{i}
    done;
    !s
end

type kind = Read | Write

(* What one mode (untraced or traced) of the measured phase saw. *)
type acc = {
  all : Fbuf.t;
  reads : Fbuf.t;
  writes : Fbuf.t;
  mutable ops : int;
  mutable raw_time : float;  (** summed latency before scaling *)
  mutable maint : float;
  deltas : (string, float) Hashtbl.t;  (** counter deltas over the ops alone *)
  maint_deltas : (string, float) Hashtbl.t;  (** counter deltas over the idle passes alone *)
}

let new_acc () =
  { all = Fbuf.create (); reads = Fbuf.create (); writes = Fbuf.create (); ops = 0; raw_time = 0.; maint = 0.;
    deltas = Hashtbl.create 32; maint_deltas = Hashtbl.create 32 }

let record acc kind dt =
  Fbuf.push acc.all dt;
  Fbuf.push (match kind with Read -> acc.reads | Write -> acc.writes) dt;
  acc.ops <- acc.ops + 1

let add_deltas tbl before after =
  List.iter2
    (fun (k, a) (_, b) -> Hashtbl.replace tbl k (Option.value (Hashtbl.find_opt tbl k) ~default:0. +. (b -. a)))
    before after

let find tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.

(* Ops per second of op time: the phase's ops over their summed scaled
   latency (one client, so idle passes are left out). *)
let ops_per_s acc = S.rate (Fbuf.to_array acc.all)

(* {2 Host reference}

   The shared 2-vCPU VM the benchmark was tuned on ran OCaml code at one of
   two speeds some 1.7x apart, switching every few seconds to a minute,
   while C code (Digest) and file I/O kept their speed. Ten runs that met
   both speeds spread by up to 0.6 of their median. So a fixed piece of
   OCaml work that uses none of the library is timed on either side of
   every stretch of measured work, and the stretch's times are scaled by
   it. A change to the library leaves the reference as it was, so it moves
   the scaled figures as much as the raw ones. *)

let ref_table : (int, string) Hashtbl.t = Hashtbl.create 4096

(* Seconds the reference work takes: the median of three goes. *)
let reference () =
  S.median
    (List.init 3 (fun _ ->
         let t0 = now () in
         for i = 0 to 19_999 do
           Hashtbl.replace ref_table (i land 4095) (string_of_int i)
         done;
         now () -. t0))

(* The reference's time in the fast state of that host (Xeon, 2.1 GHz):
   scaled times read as wall time there. *)
let reference_nominal = 0.002

(* Every reference sample the run took, for the [#] lines. *)
let references = Fbuf.create ()

(* The factor for work that had reference times [r0] before and [r1]
   after it. *)
let host_scale r0 r1 =
  Fbuf.push references r0;
  Fbuf.push references r1;
  reference_nominal /. ((r0 +. r1) /. 2.)

(* Scaled and unscaled seconds spent in [stretch] calls. *)
let stretched = ref 0. and stretched_raw = ref 0.

(* Run [f] as one stretch of measured work: its wall time, scaled by the
   host reference on either side, goes to [stretched]. *)
let stretch f =
  let r0 = reference () in
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  stretched := !stretched +. (dt *. host_scale r0 (reference ()));
  stretched_raw := !stretched_raw +. dt;
  v

(* Move a window's ops into [acc], their latencies times [scale]. *)
let absorb acc (w : acc) scale =
  let add dst src =
    for k = 0 to src.Fbuf.n - 1 do
      Fbuf.push dst (src.Fbuf.a.{k} *. scale)
    done;
    Fbuf.clear src
  in
  acc.raw_time <- acc.raw_time +. Fbuf.sum w.all;
  add acc.all w.all;
  add acc.reads w.reads;
  add acc.writes w.writes;
  acc.ops <- acc.ops + w.ops;
  w.ops <- 0

(* The process's top heap at the end of the measured phase, in words:
   set-up, warm-up and ops, before the checks and recoveries. *)
let phase_top_heap = ref 0

(* The measured phase runs in windows of this much op time, or of the ops
   up to the next idle pass: short, so the host reference on either side
   meets the same host state as the ops. Traced runs alternate untraced and
   traced windows, so both modes see the same store state and the gap
   between them is the tracing overhead. *)
let window = 0.25

type driver = {
  op : int -> kind;  (** run op [i] (inputs drawn from the seeded stream) *)
  maint_every : int;  (** idle pass after every this many ops; 0 = none *)
  maint : unit -> unit;
  counters : unit -> (string * float) list;
  warmed : unit -> unit;  (** called once between warm-up and the measured phase *)
}

(* Closed loop, one client: the next op starts when the previous returns.
   The phase runs until its ops have taken --seconds. Each window's
   latencies are scaled by the host reference taken on either side of it.
   Counter deltas are taken around the ops alone; an idle pass's go to
   [maint_deltas]. *)
let drive ~warmup (d : driver) : acc * acc =
  for i = 0 to warmup - 1 do
    ignore (d.op i)
  done;
  d.warmed ();
  Gc.compact ();
  let un = new_acc () and tr = new_acc () in
  let w = new_acc () and i = ref warmup and traced = ref false and op_total = ref 0. in
  while !op_total < !seconds do
    let acc = if !traced then tr else un in
    let op_time = ref 0. and idle = ref false in
    let r0 = reference () in
    let c0 = d.counters () in
    Atomic.set T.enabled !traced;
    while not (!idle || !op_time >= window || !op_total +. !op_time >= !seconds) do
      let id = !i in
      let t0 = now () in
      let kind = T.root "op" ~id (fun () -> d.op id) in
      let dt = now () -. t0 in
      record w kind dt;
      op_time := !op_time +. dt;
      incr i;
      idle := d.maint_every > 0 && !i mod d.maint_every = 0
    done;
    Atomic.set T.enabled false;
    let c1 = d.counters () in
    absorb acc w (host_scale r0 (reference ()));
    add_deltas acc.deltas c0 c1;
    op_total := !op_total +. !op_time;
    if !idle then begin
      Atomic.set T.enabled !traced;
      let m0 = now () in
      T.root "maint" ~id:!i d.maint;
      acc.maint <- acc.maint +. (now () -. m0);
      Atomic.set T.enabled false;
      add_deltas acc.maint_deltas c1 (d.counters ())
    end;
    if !trace then traced := not !traced
  done;
  phase_top_heap := (Gc.quick_stat ()).Gc.top_heap_words;
  (un, tr)

let chunk_counters (cs : Shard_store.t) (raw : Untrusted_store.t) () =
  let st = Shard_store.stats cs and io = Untrusted_store.stats raw in
  let f = float_of_int in
  [
    ("cc_hits", f st.Chunk_store.cache_hits);
    ("cc_misses", f st.Chunk_store.cache_misses);
    ("cc_evictions", f st.Chunk_store.cache_evictions);
    ("bytes_map", f st.Chunk_store.bytes_map);
    ("bytes_data", f st.Chunk_store.bytes_data);
    ("bytes_commit", f st.Chunk_store.bytes_commit);
    ("bytes_relocated", f st.Chunk_store.bytes_relocated);
    ("chunks_relocated", f st.Chunk_store.chunks_relocated);
    ("durable_commits", f st.Chunk_store.durable_commits);
    ("segments_grown", f (st.Chunk_store.grow_policy + st.Chunk_store.grow_fallback + st.Chunk_store.grow_backstop));
    ("segments_cleaned", f st.Chunk_store.segments_cleaned);
    ("clean_passes", f st.Chunk_store.clean_passes);
    ("io_reads", f io.Untrusted_store.reads);
    ("io_bytes_read", f io.Untrusted_store.bytes_read);
    ("io_writes", f io.Untrusted_store.writes);
    ("io_bytes_written", f io.Untrusted_store.bytes_written);
    ("io_syncs", f io.Untrusted_store.syncs);
    ("bumps", f (Atomic.get T.bumps));
  ]

let object_counters (os : Object_store.t) () =
  let h, m, e = Object_store.cache_stats os in
  [ ("oc_hits", float_of_int h); ("oc_misses", float_of_int m); ("oc_evictions", float_of_int e) ]

(* Run set-up [f] [n] times (each on fresh state) and keep the median of
   the scaled time of its stretches. A compaction before each call starts
   it from the same heap shape and frees what the previous call left
   behind. *)
let median_time n f =
  let raw = ref [] in
  let times =
    List.init n (fun i ->
        Gc.compact ();
        stretched := 0.;
        stretched_raw := 0.;
        f i;
        raw := !stretched_raw :: !raw;
        !stretched)
  in
  let show xs = String.concat " " (List.map (Printf.sprintf "%.4f") xs) in
  info "set-ups: %s s (unscaled %s s)" (show times) (show (List.rev !raw));
  S.median times

(* {1 Results} *)

type result = {
  setup_s : float;
  un : acc;
  tr : acc;
  maint_s : float;
  recovery_s : float;
  db_bytes : int;  (** store file size of the crash image *)
  live_bytes : int;
  caches : string;  (** the cache budgets the workload ran with *)
  tampers : int;  (** tamper detections counted by the live and recovered stores *)
  correct : bool;
}

(* Crash copies recovered per run: recovery_s is their median. *)
let recoveries () = if !trace then 1 else 9

(* Make everything committed durable and checkpoint. An image whose
   residual log outlived a segment reclaim can fail its map-node hash check
   at open with a false Tamper_detected (see README.md), so every crash
   image the benchmark reopens is taken right after a checkpoint. *)
let settle (s : store) =
  Shard_store.durable_barrier s.cs;
  T.root "maint" ~id:0 (fun () -> T.span "shard_store.checkpoint" (fun () -> Shard_store.checkpoint s.cs))

(* Copy [s]'s files, as a crash right after a checkpoint leaves them, into
   fresh directories; [s] stays open. Taken at the end of warm-up, the
   image depends only on the seed, so recovery_s does not depend on how
   far the measured phase got. *)
let crash_copies (s : store) : string list =
  settle s;
  List.init (recoveries ()) (fun i ->
      let d = fresh_dir (Printf.sprintf "crash-%d" i) in
      List.iter (fun f -> copy_file (Filename.concat s.sdir f) (Filename.concat d f)) [ "db"; "counter" ];
      d)

(* Crash copies, opened one at a time after the measured phase. The first
   stays open for the output check on the warm-up image; the others are
   closed as soon as they are timed. *)
type recovery = {
  mutable todo : string list;
  mutable times : float list;  (** open times, newest first *)
  mutable cleans : float list;  (** idle clean pass times, newest first *)
  mutable first : store option;
  mutable tampers : int;
  config : Config.t;
  clean : bool;
}

(* With [clean], each copy also gets one bounded idle clean pass once
   open: maint_s for a workload whose phase has no idle passes. *)
let recovery ?(clean = false) ~config () = { todo = []; times = []; cleans = []; first = None; tampers = 0; config; clean }

let timed f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

(* Time Shard_store.open_existing (anchor MAC, one-way counter and map
   checks) on the next crash copy, if one is left. *)
let open_next r =
  match r.todo with
  | [] -> ()
  | d :: rest -> (
      r.todo <- rest;
      let id = List.length r.times in
      let t, s =
        timed (fun () ->
            T.root "recovery" ~id (fun () ->
                T.span "shard_store.open" (fun () -> open_store ~create:false ~config:r.config d)))
      in
      r.times <- t :: r.times;
      if r.clean then
        r.cleans <-
          fst
            (timed (fun () ->
                 T.root "maint" ~id (fun () ->
                     T.span "shard_store.clean" (fun () -> Shard_store.clean ~max_segments:16 s.cs))))
          :: r.cleans;
      r.tampers <- r.tampers + (Shard_store.stats s.cs).Chunk_store.tampers;
      match r.first with None -> r.first <- Some s | Some _ -> Shard_store.close s.cs)

let show what xs = info "%s: %s s" what (String.concat " " (List.rev_map (Printf.sprintf "%.4f") xs))

(* Open every copy, then: the median open time, the median clean pass
   time, and the first copy, still open. *)
let recovered r : float * float * store =
  (* in a traced run, recovery and the maintenance after it are traced too *)
  Atomic.set T.enabled !trace;
  while r.todo <> [] do
    open_next r
  done;
  show "recovery opens" r.times;
  if r.clean then show "idle clean passes" r.cleans;
  (S.median r.times, (if r.clean then S.median r.cleans else 0.), Option.get r.first)

(* The end of the run: abandon [s] after a checkpoint, as a crash would,
   and reopen its files in place, so the output checks cover every op. *)
let crash_reopen ~config (s : store) : store =
  Atomic.set T.enabled !trace;
  settle s;
  crash s;
  open_store ~create:false ~config s.sdir

let space (s : store) = (file_size (Filename.concat s.sdir "db"), Shard_store.live_bytes s.cs)

let tampers (stores : store list) =
  List.fold_left (fun n s -> n + (Shard_store.stats s.cs).Chunk_store.tampers) 0 stores

(* Set-ups per run: setup_s is their median. *)
let setups ~heavy = if !trace then 1 else if heavy then 3 else 5

(* {1 tpcb} *)

let id_ix : (W.record, int) Indexer.t =
  Indexer.make ~name:"id" ~key:Gkey.int ~extract:(fun (r : W.record) -> r.W.id) ~unique:true ~impl:Indexer.Hash ()

let hid_ix : (W.history, int) Indexer.t =
  Indexer.make ~name:"id" ~key:Gkey.int ~extract:(fun (h : W.history) -> h.W.h_id) ~unique:false
    ~impl:Indexer.List ()

let tpcb_scale =
  { W.accounts = 10_000; tellers = 100; branches = 10; transactions = 0; measured = 0; cache_bytes = 0 }

let tables = [ ("account", W.account_cls, tpcb_scale.W.accounts); ("teller", W.teller_cls, tpcb_scale.W.tellers);
               ("branch", W.branch_cls, tpcb_scale.W.branches) ]

(* Create the four tables and bulk-load zero balances in nondurable
   batches, then checkpoint. *)
let load_tpcb os =
  stretch (fun () ->
      Cstore.with_ctxn ~durable:false os (fun ct ->
          ignore (Cstore.create_collection ct ~name:"history" ~schema:W.history_cls hid_ix)));
  List.iter
    (fun (name, cls, n) ->
      let coll =
        stretch (fun () ->
            Cstore.with_ctxn ~durable:false os (fun ct -> Cstore.create_collection ct ~name ~schema:cls id_ix))
      in
      let loaded = ref 0 in
      while !loaded < n do
        let upto = min n (!loaded + 2_000) in
        stretch (fun () ->
            Cstore.with_ctxn ~durable:false os (fun ct ->
                for id = !loaded to upto - 1 do
                  ignore (Cstore.insert ct coll (W.make_record ~id ~balance:0))
                done));
        loaded := upto
      done)
    tables;
  stretch (fun () -> Object_store.checkpoint os)

(* Money conservation on a (recovered) store: every table's balances sum
   to the applied deltas and history holds one row per committed txn. *)
let check_tpcb_tables os ~deltas ~txns =
  Cstore.with_ctxn os (fun ct ->
      let sum name cls =
        let coll = Cstore.open_collection ~indexers:[ Indexer.Generic id_ix ] ct ~name ~schema:cls in
        let it = Cstore.scan ct coll id_ix in
        let s = ref 0 in
        while not (Cstore.at_end it) do
          s := !s + (Cstore.read it).W.balance;
          Cstore.advance it
        done;
        Cstore.close it;
        !s
      in
      let hist = Cstore.open_collection ~indexers:[ Indexer.Generic hid_ix ] ct ~name:"history" ~schema:W.history_cls in
      List.for_all (fun (name, cls, _) -> sum name cls = deltas) tables && Cstore.size ct hist = txns)

let tpcb_config = { Config.default with Config.chunk_cache_bytes = 300 * 1024 }
let tpcb_object_config = { Object_store.default_config with Object_store.cache_budget = 100 * 1024 }

let run_tpcb () : result =
  let last = ref None in
  let setup_s =
    median_time (setups ~heavy:true) (fun i ->
        let d = fresh_dir (Printf.sprintf "setup-%d" i) in
        let s, os =
          stretch (fun () ->
              let s = open_store ~create:true ~config:tpcb_config d in
              (s, Object_store.of_shard_store ~config:tpcb_object_config s.cs))
        in
        load_tpcb os;
        Option.iter (fun (p, _) -> crash p; rm_rf p.sdir) !last;
        last := Some (s, os))
  in
  let s, os = Option.get !last in
  let colls =
    Cstore.with_ctxn ~durable:false os (fun ct ->
        let o name cls = Cstore.open_collection ~indexers:[ Indexer.Generic id_ix ] ct ~name ~schema:cls in
        ( o "account" W.account_cls,
          o "teller" W.teller_cls,
          o "branch" W.branch_cls,
          Cstore.open_collection ~indexers:[ Indexer.Generic hid_ix ] ct ~name:"history" ~schema:W.history_cls ))
  in
  let accounts, tellers, branches, history = colls in
  let rng = Tdb_crypto.Drbg.create ~seed:(Printf.sprintf "perfbench-tpcb-%d" !seed) in
  let deltas = ref 0 and txns = ref 0 in
  let bump ct coll id delta =
    T.span "cstore.lookup" (fun () ->
        let it = Cstore.exact ct coll id_ix id in
        if Cstore.at_end it then failwith (Printf.sprintf "tpcb: missing record %d" id);
        let r = Cstore.write it in
        r.W.balance <- r.W.balance + delta;
        Cstore.advance it;
        Cstore.close it)
  in
  let op _ =
    let input = W.gen_txn rng tpcb_scale in
    let ct = Cstore.begin_ os in
    bump ct accounts input.W.account input.W.delta;
    bump ct tellers input.W.teller input.W.delta;
    bump ct branches input.W.branch input.W.delta;
    T.span "cstore.insert" (fun () -> ignore (Cstore.insert ct history (W.make_history ~h_id:!txns ~input)));
    T.span "cstore.commit" (fun () -> Cstore.commit ~durable:true ct);
    deltas := !deltas + input.W.delta;
    incr txns;
    Write
  in
  let counters () = chunk_counters s.cs s.raw () @ object_counters os () in
  let maint () = T.span "shard_store.clean" (fun () -> Shard_store.clean ~max_segments:16 s.cs) in
  let rcv = recovery ~config:tpcb_config () and at_copy = ref (0, 0) in
  let warmed () =
    rcv.todo <- crash_copies s;
    at_copy := (!deltas, !txns)
  in
  let un, tr = drive ~warmup:300 { op; maint_every = 500; maint; counters; warmed } in
  (* point-read every row back: the conservation check on the live store *)
  let read_balance coll id =
    Cstore.with_ctxn os (fun ct ->
        let it = Cstore.exact ct coll id_ix id in
        let b = (Cstore.read it).W.balance in
        Cstore.close it;
        b)
  in
  let live_ok =
    List.for_all
      (fun (coll, n) ->
        let sum = ref 0 in
        for id = 0 to n - 1 do
          sum := !sum + read_balance coll id
        done;
        !sum = !deltas)
      [ (accounts, tpcb_scale.W.accounts); (tellers, tpcb_scale.W.tellers); (branches, tpcb_scale.W.branches) ]
    && Cstore.with_ctxn os (fun ct -> Cstore.size ct history) = !txns
  in
  let conserved (st : store) ~deltas ~txns =
    let os = Object_store.of_shard_store ~config:tpcb_object_config st.cs in
    Fun.protect ~finally:(fun () -> Object_store.close os) (fun () -> check_tpcb_tables os ~deltas ~txns)
  in
  let e = crash_reopen ~config:tpcb_config s in
  let db_bytes, live_bytes = space e in
  let end_ok = conserved e ~deltas:!deltas ~txns:!txns in
  let recovery_s, _, r0 = recovered rcv in
  let recovered_ok = conserved r0 ~deltas:(fst !at_copy) ~txns:(snd !at_copy) in
  if not live_ok then info "tpcb: live-store conservation check FAILED";
  if not end_ok then info "tpcb: conservation check after the end-of-run crash FAILED";
  if not recovered_ok then info "tpcb: conservation check on the recovered warm-up image FAILED";
  info "tpcb: %d txns, delta sum %d" !txns !deltas;
  let tampers = tampers [ s; e ] + rcv.tampers in
  { setup_s; un; tr; maint_s = un.maint; recovery_s; db_bytes; live_bytes;
    caches = "object cache 100 KB, chunk cache 300 KB"; tampers; correct = live_ok && end_ok && recovered_ok }

(* {1 lookup} *)

type license = { lic : int; owner : int; mutable uses : int; terms : string }

let license_cls : license Obj_class.t =
  let module P = Tdb_pickle.Pickle in
  Obj_class.define ~name:"perfbench.license"
    ~pickle:(fun w l ->
      P.int w l.lic;
      P.int w l.owner;
      P.int w l.uses;
      P.string w l.terms)
    ~unpickle:(fun ~version:_ r ->
      let lic = P.read_int r in
      let owner = P.read_int r in
      let uses = P.read_int r in
      { lic; owner; uses; terms = P.read_string r })
    ()

let licenses = 5_000
let per_owner = 8

let lic_ix : (license, int) Indexer.t =
  Indexer.make ~name:"lic" ~key:Gkey.int ~extract:(fun l -> l.lic) ~unique:true ~impl:Indexer.Hash ~immutable:true ()

let owner_ix : (license, int) Indexer.t =
  Indexer.make ~name:"owner" ~key:Gkey.int ~extract:(fun l -> l.owner) ~impl:Indexer.Btree ~immutable:true ()

let lic_indexers = [ Indexer.Generic lic_ix; Indexer.Generic owner_ix ]

let run_lookup () : result =
  let config = Config.default in
  let last = ref None in
  let setup_s =
    median_time (setups ~heavy:false) (fun i ->
        let d = fresh_dir (Printf.sprintf "setup-%d" i) in
        let s, os =
          stretch (fun () ->
              let s = open_store ~create:true ~config d in
              (s, Object_store.of_shard_store s.cs))
        in
        let coll =
          stretch (fun () ->
              Cstore.with_ctxn ~durable:false os (fun ct ->
                  let c = Cstore.create_collection ct ~name:"license" ~schema:license_cls lic_ix in
                  Cstore.create_index ct c owner_ix;
                  for lic = 0 to licenses - 1 do
                    ignore
                      (Cstore.insert ct c { lic; owner = lic / per_owner; uses = 0; terms = String.make 48 't' })
                  done;
                  c))
        in
        stretch (fun () -> Object_store.checkpoint os);
        Option.iter (fun (p, _, _) -> crash p; rm_rf p.sdir) !last;
        last := Some (s, os, coll))
  in
  let s, os, coll = Option.get !last in
  let rng = Tdb_crypto.Drbg.create ~seed:(Printf.sprintf "perfbench-lookup-%d" !seed) in
  let uses = Array.make licenses 0 in
  let bad = ref 0 in
  let expect b = if not b then incr bad in
  let op _ =
    let lic = Tdb_crypto.Drbg.int rng licenses in
    let write = Tdb_crypto.Drbg.int rng 100 < 5 in
    let ct = Cstore.begin_ os in
    let owner =
      T.span "cstore.lookup" (fun () ->
          let it = Cstore.exact ct coll lic_ix lic in
          let l = if write then Cstore.write it else Cstore.read it in
          if write then begin
            l.uses <- l.uses + 1;
            uses.(lic) <- uses.(lic) + 1
          end;
          expect (l.lic = lic && l.uses = uses.(lic));
          Cstore.close it;
          l.owner)
    in
    if not write then
      T.span "cstore.range" (fun () ->
          let it = Cstore.range ct coll owner_ix ~min:(Some owner) ~max:(Some owner) in
          let n = ref 0 in
          while not (Cstore.at_end it) do
            let l = Cstore.read it in
            expect (l.owner = owner && l.uses = uses.(l.lic));
            incr n;
            Cstore.advance it
          done;
          Cstore.close it;
          expect (!n = per_owner));
    T.span "cstore.commit" (fun () -> Cstore.commit ~durable:true ct);
    if write then Write else Read
  in
  let counters () = chunk_counters s.cs s.raw () @ object_counters os () in
  let rcv = recovery ~clean:true ~config () and at_copy = ref [||] in
  let warmed () =
    rcv.todo <- crash_copies s;
    at_copy := Array.copy uses
  in
  let un, tr =
    drive ~warmup:2_000 { op; maint_every = 0; maint = ignore; counters; warmed }
  in
  (* every license's use count, read back by scan *)
  let counted uses (st : store) =
    Cstore.with_ctxn (Object_store.of_shard_store st.cs) (fun ct ->
        let c = Cstore.open_collection ~indexers:lic_indexers ct ~name:"license" ~schema:license_cls in
        let it = Cstore.scan ct c lic_ix in
        let ok = ref (Cstore.size ct c = licenses) in
        while not (Cstore.at_end it) do
          let l = Cstore.read it in
          if l.uses <> uses.(l.lic) then ok := false;
          Cstore.advance it
        done;
        Cstore.close it;
        !ok)
  in
  let e = crash_reopen ~config s in
  let db_bytes, live_bytes = space e in
  let end_ok = counted uses e in
  let recovery_s, maint_s, r0 = recovered rcv in
  let recovered_ok = counted !at_copy r0 in
  if !bad > 0 then info "lookup: %d reads disagreed with the model" !bad;
  if not end_ok then info "lookup: use counts after the end-of-run crash FAILED";
  if not recovered_ok then info "lookup: use counts on the recovered warm-up image FAILED";
  let tampers = tampers [ s; e ] + rcv.tampers in
  { setup_s; un; tr; maint_s; recovery_s; db_bytes; live_bytes;
    caches = "object cache 4 MB, chunk cache 1 MB (defaults)"; tampers; correct = !bad = 0 && end_ok && recovered_ok }

(* {1 Metrics} *)

let ms x = x *. 1e3

let end_to_end (r : result) : (string * float * string) list =
  let tail what xs =
    let s = S.summarize xs in
    info "%s: n=%d, p50 %.4f ms, p%g %.4f ms" what s.S.n (ms s.S.p50) s.S.tail_p (ms s.S.tail);
    s
  in
  let ops = tail "ops" (Fbuf.to_array r.un.all) in
  let refs = S.summarize (Fbuf.to_array references) in
  info "host reference: %d samples, median %.5f s, p%g %.5f s (nominal %.4f s); unscaled ops_per_s %.2f" refs.S.n
    refs.S.p50 refs.S.tail_p refs.S.tail reference_nominal
    (S.ratio (float_of_int r.un.ops) r.un.raw_time);
  let peak_heap_mb = float_of_int (!phase_top_heap * (Sys.word_size / 8)) /. 1048576. in
  (* Measured but left out of BENCHMARK.json (see README.md): the read and
     write split applies to lookup only, and maint_s and recovery_s spread
     by more than a quarter of their median over ten seeds. *)
  let split =
    if String.equal !workload "lookup" then
      Printf.sprintf "read_p99_ms %.6f, write_p99_ms %.6f, "
        (ms (tail "reads" (Fbuf.to_array r.un.reads)).S.tail)
        (ms (tail "writes" (Fbuf.to_array r.un.writes)).S.tail)
    else ""
  in
  info "unbounded: %smaint_s %.6f, recovery_s %.6f" split r.maint_s r.recovery_s;
  [
    ("setup_s", r.setup_s, "s");
    ("ops_per_s", ops_per_s r.un, "op/s");
    ("op_p50_ms", ms ops.S.p50, "ms");
    ("op_p99_ms", ms ops.S.tail, "ms");
    ("space_amp", S.ratio (float_of_int r.db_bytes) (float_of_int r.live_bytes), "ratio");
    ("peak_heap_mb", peak_heap_mb, "MB");
  ]

let per_layer (r : result) : (string * float * string) list =
  let agg, op_self = T.aggregate () in
  let get name = Hashtbl.find_opt agg name in
  let mean name = match get name with Some a -> S.ratio a.T.total (float_of_int a.T.count) | None -> 0. in
  let self names =
    let t, n =
      List.fold_left
        (fun (t, n) name -> match get name with Some a -> (t +. a.T.self, n + a.T.count) | None -> (t, n))
        (0., 0) names
    in
    S.ratio t (float_of_int n)
  in
  let tr = r.tr in
  let ops = tr.ops in
  (* op-path counters cover the traced ops alone; cleaner counters also
     take in the idle passes, which is where tpcb cleans *)
  let d = find tr.deltas in
  let dc k = d k +. find tr.maint_deltas k in
  let per_op x = S.per_op ~ops x in
  let platform_busy prefix =
    Hashtbl.fold (fun name a acc -> if String.starts_with ~prefix name then acc +. a.T.op_total else acc) agg 0.
  in
  let relocated = dc "bytes_relocated" in
  (* spans hold wall time, so these two compare unscaled op times *)
  let raw_mean acc = S.ratio acc.raw_time (float_of_int acc.ops) in
  (* extra time per op the tracer costs, as a share of the untraced op time *)
  let overhead = S.ratio (raw_mean tr) (raw_mean r.un) -. 1. in
  let self_sum_ratio = S.ratio (per_op op_self) (raw_mean r.un) in
  info "trace: %d traced / %d untraced ops, overhead %.3f, op self-time sum / untraced op time %.3f" ops r.un.ops
    overhead self_sum_ratio;
  if Float.abs (self_sum_ratio -. 1.) > Float.abs overhead +. 0.05 then
    info "trace: self times do not add up to the untraced op time within the tracing overhead";
  let us x = x *. 1e6 in
  [
    ("cstore.lookup_us", us (mean "cstore.lookup"), "us");
    ("cstore.range_us", us (mean "cstore.range"), "us");
    ("cstore.insert_us", us (mean "cstore.insert"), "us");
    ("cstore.commit_us", us (mean "cstore.commit"), "us");
    ("cstore.commit_self_us", us (self [ "cstore.commit" ]), "us");
    ("object_store.cache_hit_rate", S.ratio (d "oc_hits") (d "oc_hits" +. d "oc_misses"), "ratio");
    ("object_store.cache_evictions_per_op", per_op (d "oc_evictions"), "count");
    ("shard_store.checkpoint_ms", ms (mean "shard_store.checkpoint"), "ms");
    ("shard_store.open_ms", ms (mean "shard_store.open"), "ms");
    ("shard_store.clean_pass_ms", ms (mean "shard_store.clean"), "ms");
    ("chunk_store.map_bytes_per_op", per_op (d "bytes_map"), "B");
    ("chunk_store.data_bytes_per_op", per_op (d "bytes_data"), "B");
    ("chunk_store.commit_bytes_per_op", per_op (d "bytes_commit"), "B");
    ("chunk_store.durable_commits_per_op", per_op (d "durable_commits"), "count");
    ("chunk_store.segments_grown", dc "segments_grown", "count");
    ("chunk_store.tampers", float_of_int r.tampers, "count");
    ("chunk_cache.hit_rate", S.ratio (d "cc_hits") (d "cc_hits" +. d "cc_misses"), "ratio");
    ("chunk_cache.evictions_per_op", per_op (d "cc_evictions"), "count");
    ("log.write_amp", S.ratio relocated (dc "bytes_data" -. relocated), "ratio");
    ("log.chunks_relocated_per_op", per_op (dc "chunks_relocated"), "count");
    ("log.segments_cleaned", dc "segments_cleaned", "count");
    ("log.clean_passes", dc "clean_passes", "count");
    ("untrusted_store.read_calls_per_op", per_op (d "io_reads"), "count");
    ("untrusted_store.read_bytes_per_op", per_op (d "io_bytes_read"), "B");
    ("untrusted_store.write_calls_per_op", per_op (d "io_writes"), "count");
    ("untrusted_store.write_bytes_per_op", per_op (d "io_bytes_written"), "B");
    ("untrusted_store.syncs_per_op", per_op (d "io_syncs"), "count");
    ("untrusted_store.busy_us_per_op", us (per_op (platform_busy "untrusted_store.")), "us");
    ("one_way_counter.bumps_per_op", per_op (d "bumps"), "count");
    ("one_way_counter.busy_us_per_op", us (per_op (platform_busy "one_way_counter.")), "us");
    ("trace.overhead_frac", overhead, "ratio");
    ("trace.self_sum_ratio", self_sum_ratio, "ratio");
  ]

(* {1 Main} *)

let json_metrics (ms : (string * float * string) list) =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         let v = if Float.is_finite v then v else 0. in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       ms)

let () =
  if !dir = "" || not (Sys.file_exists !dir) then begin
    prerr_endline "tdb_perf: --dir must name an existing directory";
    exit 2
  end;
  let run =
    match !workload with
    | "tpcb" -> run_tpcb
    | "lookup" -> run_lookup
    | w ->
        Printf.eprintf "tdb_perf: unknown workload %S\n" w;
        exit 2
  in
  let c = Config.default and o = Object_store.default_config in
  info "workload %s seed %d seconds %g trace %b" !workload !seed !seconds !trace;
  info "defaults: cipher %s, hash %s, domains %d, shards %d, tiers %d, segment %d B, max_utilization %g, \
        chunk cache %d B, object cache %d B, locking %b"
    (match c.Config.cipher with Config.Aes128 -> "aes128" | Config.Triple_aes -> "triple-aes" | Config.Triple_xtea -> "triple-xtea")
    (match c.Config.hash with Config.Sha1 -> "sha1" | Config.Sha256 -> "sha256")
    c.Config.domains c.Config.shards c.Config.tiers c.Config.segment_size c.Config.max_utilization
    c.Config.chunk_cache_bytes o.Object_store.cache_budget o.Object_store.locking;
  let r = run () in
  info "sizes: store file %.2f MB, live data %.2f MB; %s" (float_of_int r.db_bytes /. 1048576.)
    (float_of_int r.live_bytes /. 1048576.) r.caches;
  let metrics = if !trace then per_layer r else end_to_end r in
  List.iter (fun (n, v, u) -> info "%-40s %14.6f %s" n v u) metrics;
  let correct = r.correct && r.tampers = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": 0, \"metrics\": {%s}}\n%!" correct
    (r.un.ops + r.tr.ops) (json_metrics metrics);
  exit (if correct then 0 else 1)
