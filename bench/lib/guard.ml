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

let judge ~tol ~what ~fresh ~base r =
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

(* one row pair, judged only when both rows exist *)
let axis ~tol ~what rules fresh base =
  match (fresh, base) with Some f, Some b -> List.concat_map (judge ~tol ~what ~fresh:f ~base:b) rules | _ -> []

(* each fresh row against the baseline row with the same [key] *)
let same_rows ~tol ?(prefix = "") key rules ~base fresh =
  List.concat_map
    (fun (id, f) ->
      match find key base id with
      | None -> [ (Note, prefix ^ id ^ ": not in baseline, skipping") ]
      | b -> axis ~tol ~what:(prefix ^ id) rules (Some f) b)
    (rows key fresh)

let scale_name j = match Option.bind (member "scale" j) (member "name") with Some (Str s) -> s | _ -> ""

let run ?tol ~base fresh =
  let tol default = Option.value tol ~default in
  match member "bench" fresh with
  | Some (Str "tpcb") -> same_rows ~tol:(tol 0.15) "label" [ ops; writes ] ~base fresh
  | Some (Str "domains") ->
      same_rows ~tol:(tol 0.15) "label" [ ops; writes ] ~base fresh
      @ axis ~tol:(tol 0.15) ~what:"domains axis: tdbs/d4 vs tdbs/d1" [ ops ] (find "label" fresh "tdbs/d4")
          (find "label" fresh "tdbs/d1")
  | Some (Str "shards") ->
      axis ~tol:(tol 0.15) ~what:"shards axis: tdbs (shards=1) vs baseline TDB-S" [ ops; writes ]
        (find "label" fresh "tdbs") (find "label" base "TDB-S")
      @ [ (Note, "shards axis: multi-shard rows measured, not gated (2PC tax is by design)") ]
  | Some (Str "meter") when not (String.equal (scale_name base) (scale_name fresh)) ->
      let b, f = (scale_name base, scale_name fresh) in
      [ (Fail, Printf.sprintf "meter scales differ (baseline %s, fresh %s): rows are not comparable" b f) ]
  | Some (Str "meter") -> same_rows ~tol:(tol 0.15) ~prefix:"meter alpha=" "alpha" [ write_amp ] ~base fresh
  | Some (Str "micro") -> same_rows ~tol:(tol 0.50) "name" [ ns_per_op ] ~base fresh
  | Some (Str bench) -> [ (Note, bench ^ ": no guard rules, nothing gated") ]
  | _ -> raise (Error "fresh file has no \"bench\" field")

let passed = List.for_all (fun (v, _) -> match v with Fail -> false | Pass | Note -> true)

let print =
  List.iter (fun (v, msg) ->
      print_endline ((match v with Pass -> "guard: ok   " | Fail -> "guard: FAIL " | Note -> "guard: ") ^ msg))
