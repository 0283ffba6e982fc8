(* Crashpoint fault-injection sweep over the chunk store.

   Replays deterministic chunk workloads, crashes them at every
   write/sync boundary under seeded subsets of surviving unsynced writes,
   reopens and checks recovery invariants, then bit-flips committed
   images and checks tamper detection. Exits 1 if any invariant is
   violated. See DESIGN.md, "Crash model". *)

module C = Tdb_faultsim.Crashfuzz

let () =
  let txns = ref C.default_trace.C.txns in
  let seeds = ref 8 in
  let stride = ref 1 in
  let tamper_stride = ref 7 in
  let mask = ref 0x10 in
  let json = ref false in
  let quiet = ref false in
  let shards = ref 0 in
  let seed = ref C.default_trace.C.seed in
  let spec =
    [
      ("--txns", Arg.Set_int txns, "N  transactions in the recorded trace (default 24)");
      ("--seeds", Arg.Set_int seeds, "N  persistence-subset seeds per crashpoint (default 8)");
      ("--stride", Arg.Set_int stride, "N  crash at every N-th boundary (default 1: every boundary)");
      ("--tamper-stride", Arg.Set_int tamper_stride, "N  bit-flip every N-th image byte (default 7)");
      ("--mask", Arg.Set_int mask, "M  XOR mask for the tamper sweep (default 0x10)");
      ("--seed", Arg.Set_string seed, "S  trace seed (default tdb-crashfuzz)");
      ("--shards", Arg.Set_int shards, "N  shard width for the 2PC sweep (default: max 2 TDB_SHARDS)");
      ("--json", Arg.Set json, "  emit the JSON summary on stdout");
      ("--quiet", Arg.Set quiet, "  no progress output");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "tdb_crashfuzz [options]: crashpoint fault-injection sweep";
  let trace = { C.default_trace with C.txns = !txns; seed = !seed } in
  let progress k n = if not !quiet then Printf.eprintf "\rcrashpoint %d/%d%!" k n in
  let shards = if !shards > 0 then Some !shards else None in
  let label name = String.map (function '_' -> '-' | c -> c) name in
  let reports =
    List.map
      (fun (name, run) ->
        let r = run () in
        (if not !quiet then
           match r with
           | C.Crash r -> Printf.eprintf "\r%s sweep done: %d runs over %d boundaries\n%!" (label name) r.runs r.boundaries
           | C.Tamper r ->
               Printf.eprintf "%s sweep done: %d flips (%d detected, %d harmless)\n%!" (label name) r.flips r.detected
                 r.harmless);
        (name, r))
      (C.sweeps ~progress ?shards ~trace ~seeds:!seeds ~stride:!stride ~tamper_stride:!tamper_stride ~mask:!mask ())
  in
  let violations = List.concat_map (function _, C.Crash r -> r.C.violations | _, C.Tamper _ -> []) reports in
  if !json then print_endline (C.json_summary ~trace reports)
  else begin
    List.iter
      (fun (name, r) ->
        match (name, r) with
        | "crash", C.Crash r ->
            Printf.printf "boundaries=%d crashpoints=%d seeds=%d runs=%d crashes=%d recoveries=%d violations=%d\n"
              r.boundaries r.crashpoints r.seeds r.runs r.crashes r.recoveries (List.length r.violations)
        | _, C.Crash r ->
            Printf.printf "%s: boundaries=%d crashpoints=%d runs=%d crashes=%d recoveries=%d violations=%d\n"
              (label name) r.boundaries r.crashpoints r.runs r.crashes r.recoveries (List.length r.violations)
        | _, C.Tamper r ->
            Printf.printf "%s: flips=%d detected=%d harmless=%d silent=%d\n" (label name) r.flips r.detected r.harmless
              r.silent)
      reports;
    List.iter (fun v -> Printf.printf "VIOLATION %s %s: %s\n" v.C.v_run v.C.v_kind v.C.v_detail) violations
  end;
  let silent = List.exists (function _, C.Tamper r -> r.C.silent > 0 | _, C.Crash _ -> false) reports in
  exit (if silent || not (List.is_empty violations) then 1 else 0)
