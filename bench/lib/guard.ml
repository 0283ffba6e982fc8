open Bench_json

type verdict = Pass | Fail | Note

(* One gated field: the fresh value may move at most TOL the wrong way from
   the baseline's, plus [slack]; [digits] prints the limit. *)
type rule = { field : string; up_is_worse : bool; slack : float; digits : int }

let ops = { field = "ops_per_s"; up_is_worse = false; slack = 0.; digits = 1 }
let writes = { ops with field = "store_writes_per_txn"; up_is_worse = true; digits = 2 }

(* rows that barely clean have write_amp near 0, where a pure ratio would
   trip on noise *)
let write_amp = { writes with field = "write_amp"; slack = 0.02; digits = 4 }
let ns_per_op = { writes with field = "ns_per_op"; digits = 0 }
let show = function Str s -> s | v -> to_string v

(* (id, row) for every object, in any top-level array, that carries [key] *)
let rows key = function
  | Obj members ->
      List.concat_map
        (function
          | _, Arr l -> List.filter_map (fun r -> Option.map (fun id -> (show id, r)) (member key r)) l | _ -> [])
        members
  | _ -> []

let find key j id = List.find_map (fun (id', r) -> if String.equal id id' then Some r else None) (rows key j)

let within ~tol r ~what ~fresh ~base =
  let value row = Option.bind (member r.field row) (fun v -> Option.map (fun x -> (x, show v)) (to_float v)) in
  match (value base, value fresh) with
  | None, _ -> [ (Note, Printf.sprintf "%s: baseline has no %s, skipping" what r.field) ]
  | _, None -> [ (Note, Printf.sprintf "%s: fresh run has no %s, skipping" what r.field) ]
  | Some (b, bs), Some (f, fs) ->
      let limit = if r.up_is_worse then ((1. +. tol) *. b) +. r.slack else (1. -. tol) *. b in
      let ok = if r.up_is_worse then f <= limit else f >= limit in
      if ok then [ (Pass, Printf.sprintf "%s: %s %s (baseline %s)" what r.field fs bs) ]
      else
        let op = if r.up_is_worse then ">" else "<" in
        [ (Fail, Printf.sprintf "%s: %s %s %s %.*f (baseline %s, tolerance %g)" what r.field fs op r.digits limit bs tol) ]

(* TPC-B and meter counters (at equal scale) and the replica's archive
   counters are deterministic: a fresh value that differs at all means the
   committed file no longer describes the code. *)
let tpcb_exact =
  [ "cache_hits"; "cache_misses"; "bytes_per_txn"; "store_writes_per_txn"; "fg_checkpoints"; "db_size"; "live_bytes" ]

let meter_exact =
  [ "bytes_relocated"; "bytes_committed"; "chunks_relocated"; "segments_cleaned"; "clean_passes"; "db_size"; "live_bytes" ]

let replica_exact = [ "backups"; "stream_bytes" ]

let exact bench field ~what ~fresh ~base =
  let value row = Option.bind (member field row) (fun v -> Option.map (fun x -> (x, show v)) (to_float v)) in
  match (value base, value fresh) with
  | None, _ -> [ (Note, Printf.sprintf "%s: baseline has no %s, skipping" what field) ]
  | _, None -> [ (Note, Printf.sprintf "%s: fresh run has no %s, skipping" what field) ]
  | Some (b, bs), Some (f, fs) when Float.equal b f -> [ (Pass, Printf.sprintf "%s: %s %s (baseline %s)" what field fs bs) ]
  | Some (_, bs), Some (_, fs) ->
      let file = "BENCH_" ^ String.uppercase_ascii bench ^ ".json" in
      [ (Fail, Printf.sprintf "%s: %s %s, baseline %s: regenerate %s" what field fs bs file) ]

(* one row pair, judged only when both rows exist *)
let axis ~what checks fresh base =
  match (fresh, base) with
  | Some f, Some b -> List.concat_map (fun check -> check ~what ~fresh:f ~base:b) checks
  | _ -> []

(* each fresh row against the baseline row with the same [key] *)
let same_rows ?(prefix = "") key checks ~base fresh =
  List.concat_map
    (fun (id, f) ->
      match find key base id with
      | None -> [ (Note, prefix ^ id ^ ": not in baseline, skipping") ]
      | b -> axis ~what:(prefix ^ id) checks (Some f) b)
    (rows key fresh)

let scale_name j = match Option.bind (member "scale" j) (member "name") with Some (Str s) -> s | _ -> ""

(* both files name the same scale: a file naming none is not comparable *)
let same_scale base fresh =
  let b = scale_name base in
  (not (String.equal b "")) && String.equal b (scale_name fresh)

let run ?tol ~base fresh =
  let within default r = within ~tol:(Option.value tol ~default) r in
  match member "bench" fresh with
  | Some (Str "tpcb") when same_scale base fresh ->
      same_rows "label" (within 0.15 ops :: List.map (exact "tpcb") tpcb_exact) ~base fresh
  | Some (Str "tpcb") ->
      let b, f = (scale_name base, scale_name fresh) in
      (Note, Printf.sprintf "tpcb scales differ (baseline %S, fresh %S): counts not gated" b f)
      :: same_rows "label" [ within 0.15 ops; within 0.15 writes ] ~base fresh
  | Some (Str "meter") when not (String.equal (scale_name base) (scale_name fresh)) ->
      let b, f = (scale_name base, scale_name fresh) in
      [ (Fail, Printf.sprintf "meter scales differ (baseline %s, fresh %s): rows are not comparable" b f) ]
  | Some (Str "meter") ->
      let checks = within 0.15 write_amp :: List.map (exact "meter") meter_exact in
      same_rows ~prefix:"meter alpha=" "alpha" checks ~base fresh
  | Some (Str "replica") ->
      same_rows ~prefix:"replica interval=" "interval" (List.map (exact "replica") replica_exact) ~base fresh
  | Some (Str "micro") -> same_rows "name" [ within 0.50 ns_per_op ] ~base fresh
  | Some (Str bench) -> [ (Note, bench ^ ": no guard rules, nothing gated") ]
  | _ -> raise (Error "fresh file has no \"bench\" field")

let passed = List.for_all (fun (v, _) -> match v with Fail -> false | Pass | Note -> true)

let print =
  List.iter (fun (v, msg) ->
      print_endline ((match v with Pass -> "guard: ok   " | Fail -> "guard: FAIL " | Note -> "guard: ") ^ msg))
