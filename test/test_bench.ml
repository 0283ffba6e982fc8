(* The bench guard (bench/main.exe guard): every rule passes a fresh row
   just inside its tolerance and fails one just outside; the committed
   BENCH_*.json files parse, reprint with the same digits, and guard
   clean against themselves. *)

open Tdb_bench
module J = Bench_json

let file bench ?(extra = []) rows = J.Obj ((("bench", J.Str bench) :: extra) @ [ ("rows", J.Arr rows) ])
let row key id fields = J.Obj ((key, id) :: List.map (fun (k, v) -> (k, J.Num (v, 6))) fields)
let passes ?tol base fresh = Guard.passed (Guard.run ?tol ~base fresh)
let just_inside ~worse_up limit = if worse_up then limit *. (1. -. 1e-6) else limit *. (1. +. 1e-6)
let just_outside ~worse_up limit = if worse_up then limit *. (1. +. 1e-6) else limit *. (1. -. 1e-6)

(* (bench, row key, row id, field, baseline value, limit at the default
   tolerance, whether a higher value is worse) *)
let rules =
  [
    ("tpcb", "label", J.Str "TDB-S", "ops_per_s", 100., 85., false);
    ("tpcb", "label", J.Str "TDB-S", "store_writes_per_txn", 1.0, 1.15, true);
    ("meter", "alpha", J.Num (0.8, 1), "write_amp", 0.1, 0.135, true);
    ("micro", "name", J.Str "tdb/sha1/1KiB", "ns_per_op", 1000., 1500., true);
  ]

let test_rules () =
  List.iter
    (fun (bench, key, id, field, base, limit, worse_up) ->
      let mk v = file bench [ row key id [ (field, v) ] ] in
      let what = Printf.sprintf "%s %s" bench field in
      Alcotest.(check bool) (what ^ " just inside") true (passes (mk base) (mk (just_inside ~worse_up limit)));
      Alcotest.(check bool) (what ^ " just outside") false (passes (mk base) (mk (just_outside ~worse_up limit))))
    rules

let test_explicit_tolerance () =
  let mk v = file "micro" [ row "name" (J.Str "tdb/x") [ ("ns_per_op", v) ] ] in
  Alcotest.(check bool) "1.09x within 0.10" true (passes ~tol:0.10 (mk 1000.) (mk 1090.));
  Alcotest.(check bool) "1.11x beyond 0.10" false (passes ~tol:0.10 (mk 1000.) (mk 1110.))

let label l ops = row "label" (J.Str l) [ ("ops_per_s", ops); ("store_writes_per_txn", 1.0) ]

let test_meter_scale_mismatch () =
  let mk name = file "meter" ~extra:[ ("scale", J.Obj [ ("name", J.Str name) ]) ] [ row "alpha" (J.Num (0.0, 1)) [ ("write_amp", 0.1) ] ] in
  Alcotest.(check bool) "same scale" true (passes (mk "default") (mk "default"));
  Alcotest.(check bool) "scales differ" false (passes (mk "default") (mk "quick"))

let test_missing_label_skipped () =
  let verdicts = Guard.run ~base:(file "tpcb" [ label "TDB" 100. ]) (file "tpcb" [ label "TDB" 100.; label "new" 1. ]) in
  Alcotest.(check bool) "passes" true (Guard.passed verdicts);
  Alcotest.(check bool) "noted" true
    (List.exists (fun (v, msg) -> (match v with Guard.Note -> true | _ -> false) && String.equal msg "new: not in baseline, skipping") verdicts)

let committed = [ "BENCH_TPCB.json"; "BENCH_METER.json"; "BENCH_MICRO.json"; "BENCH_REPLICA.json" ]

(* tests run from test/ under _build; dune exec runs from the repo root *)
let path f = if Sys.file_exists f then f else Filename.concat ".." f

let test_committed_files () =
  let squeeze s = String.concat "" (String.split_on_char ' ' (String.concat "" (String.split_on_char '\n' s))) in
  List.iter
    (fun f ->
      let text = In_channel.with_open_bin (path f) In_channel.input_all in
      let j = J.of_string text in
      Alcotest.(check string) (f ^ " reprints with the same digits") (squeeze text) (squeeze (J.document j));
      Alcotest.(check bool) (f ^ " guards clean against itself") true (passes j j))
    committed

let test_parse_errors () =
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" bad) true
        (match J.of_string bad with _ -> false | exception J.Error _ -> true))
    [ ""; "{"; "{ \"a\": }"; "[1, 2"; "{ \"a\": 1 } x"; "\"open" ]

let () =
  Alcotest.run "bench_guard"
    [
      ( "rules",
        [
          Alcotest.test_case "inside passes, outside fails" `Quick test_rules;
          Alcotest.test_case "explicit tolerance" `Quick test_explicit_tolerance;
          Alcotest.test_case "meter scale mismatch" `Quick test_meter_scale_mismatch;
          Alcotest.test_case "missing label skipped" `Quick test_missing_label_skipped;
        ] );
      ( "files",
        [
          Alcotest.test_case "committed BENCH files" `Quick test_committed_files;
          Alcotest.test_case "malformed JSON" `Quick test_parse_errors;
        ] );
    ]
