(* Pickle format tests: roundtrips for each combinator, varint edge cases,
   truncation/overrun detection. *)

open Tdb_pickle

let roundtrip write read v =
  let w = Pickle.writer () in
  write w v;
  let r = Pickle.reader (Pickle.contents w) in
  let v' = read r in
  Pickle.expect_end r;
  v'

let test_int_edges () =
  List.iter
    (fun v -> Alcotest.(check int) (string_of_int v) v (roundtrip Pickle.int Pickle.read_int v))
    [ 0; 1; -1; 63; 64; -64; -65; 127; 128; 16383; 16384; max_int; min_int; max_int - 1; min_int + 1 ]

let test_int_compact () =
  (* small magnitudes take one byte *)
  let size v =
    let w = Pickle.writer () in
    Pickle.int w v;
    Pickle.writer_length w
  in
  Alcotest.(check int) "0" 1 (size 0);
  Alcotest.(check int) "-1" 1 (size (-1));
  Alcotest.(check int) "63" 1 (size 63);
  Alcotest.(check int) "64" 2 (size 64);
  Alcotest.(check bool) "max_int <= 10 bytes" true (size max_int <= 10)

let test_uint_negative_rejected () =
  let w = Pickle.writer () in
  Alcotest.check_raises "negative" (Pickle.Error "Pickle.uint: negative") (fun () -> Pickle.uint w (-1))

(* A 9-byte varint with bit 62 set decodes past max_int; as a length or
   count it must be a pickle error, not a negative size handed to
   String.sub or List.init. *)
let test_uint_overflow_rejected () =
  let bad = String.make 8 '\x80' ^ "\x40" in
  let rejects name read =
    match read (Pickle.reader bad) with
    | _ -> Alcotest.failf "%s accepted an out-of-range varint" name
    | exception Pickle.Error _ -> ()
  in
  rejects "read_uint" (fun r -> ignore (Pickle.read_uint r));
  rejects "read_string" (fun r -> ignore (Pickle.read_string r));
  rejects "read_list" (fun r -> ignore (Pickle.read_list r Pickle.read_byte))

let test_int64_float () =
  List.iter
    (fun v -> Alcotest.(check int64) "i64" v (roundtrip Pickle.int64 Pickle.read_int64 v))
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0xdeadbeefL ];
  List.iter
    (fun v ->
      let v' = roundtrip Pickle.float Pickle.read_float v in
      Alcotest.(check bool) "float" true (v = v' || (Float.is_nan v && Float.is_nan v')))
    [ 0.0; -0.0; 1.5; -3.25e300; Float.nan; Float.infinity; Float.epsilon ]

let test_string_bytes () =
  List.iter
    (fun s -> Alcotest.(check string) "str" s (roundtrip Pickle.string Pickle.read_string s))
    [ ""; "a"; String.make 1000 '\xff'; "embedded\000null" ]

let test_composites () =
  let v = [ Some (1, "a"); None; Some (-5, "") ] in
  let wr w l = Pickle.list w (fun w o -> Pickle.option w (fun w p -> Pickle.pair w Pickle.int Pickle.string p) o) l in
  let rd r = Pickle.read_list r (fun r -> Pickle.read_option r (fun r -> Pickle.read_pair r Pickle.read_int Pickle.read_string)) in
  Alcotest.(check bool) "list/option/pair" true (roundtrip wr rd v = v);
  let t = (1, "two", 3.0) in
  let wr w v = Pickle.triple w Pickle.int Pickle.string Pickle.float v in
  let rd r = Pickle.read_triple r Pickle.read_int Pickle.read_string Pickle.read_float in
  Alcotest.(check bool) "triple" true (roundtrip wr rd t = t)

let test_truncation () =
  let w = Pickle.writer () in
  Pickle.string w "hello world";
  let full = Pickle.contents w in
  for cut = 0 to String.length full - 1 do
    let r = Pickle.reader (String.sub full 0 cut) in
    match Pickle.read_string r with
    | exception Pickle.Error _ -> ()
    | s -> Alcotest.failf "truncated read at %d returned %S" cut s
  done

let test_trailing_detected () =
  let w = Pickle.writer () in
  Pickle.int w 5;
  Pickle.int w 6;
  let r = Pickle.reader (Pickle.contents w) in
  ignore (Pickle.read_int r);
  Alcotest.check_raises "trailing" (Pickle.Error "Pickle: 1 trailing bytes") (fun () -> Pickle.expect_end r)

let test_sub_reader () =
  let data = "XX" ^ (let w = Pickle.writer () in Pickle.int w 42; Pickle.contents w) ^ "YY" in
  let r = Pickle.reader ~off:2 ~len:(String.length data - 4) data in
  Alcotest.(check int) "windowed" 42 (Pickle.read_int r);
  Alcotest.(check bool) "at end" true (Pickle.at_end r)

let qcheck_int_roundtrip =
  QCheck.Test.make ~name:"int roundtrip" ~count:1000 QCheck.int (fun v ->
      roundtrip Pickle.int Pickle.read_int v = v)

let qcheck_string_roundtrip =
  QCheck.Test.make ~name:"string roundtrip" ~count:500 QCheck.string (fun s ->
      roundtrip Pickle.string Pickle.read_string s = s)

let qcheck_mixed_sequence =
  (* Any sequence of (int|string|bool) writes reads back identically. *)
  let gen = QCheck.(small_list (oneof [ map (fun i -> `I i) int; map (fun s -> `S s) printable_string; map (fun b -> `B b) bool ])) in
  QCheck.Test.make ~name:"mixed sequence roundtrip" ~count:300 gen (fun ops ->
      let w = Pickle.writer () in
      List.iter (function `I i -> Pickle.int w i | `S s -> Pickle.string w s | `B b -> Pickle.bool w b) ops;
      let r = Pickle.reader (Pickle.contents w) in
      let ok =
        List.for_all
          (function
            | `I i -> Pickle.read_int r = i
            | `S s -> Pickle.read_string r = s
            | `B b -> Pickle.read_bool r = b)
          ops
      in
      ok && Pickle.at_end r)

let () =
  Alcotest.run "tdb_pickle"
    [
      ( "scalars",
        [
          Alcotest.test_case "int edges" `Quick test_int_edges;
          Alcotest.test_case "int compact" `Quick test_int_compact;
          Alcotest.test_case "uint negative" `Quick test_uint_negative_rejected;
          Alcotest.test_case "uint overflow" `Quick test_uint_overflow_rejected;
          Alcotest.test_case "int64/float" `Quick test_int64_float;
          Alcotest.test_case "string/bytes" `Quick test_string_bytes;
        ] );
      ( "composites",
        [
          Alcotest.test_case "list/option/pair/triple" `Quick test_composites;
          Alcotest.test_case "sub reader" `Quick test_sub_reader;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "trailing bytes" `Quick test_trailing_detected;
        ] );
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest [ qcheck_int_roundtrip; qcheck_string_roundtrip; qcheck_mixed_sequence ] );
    ]
