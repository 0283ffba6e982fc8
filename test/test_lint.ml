(* Tests for the tdb_lint rule engine: each rule must fire on a minimal bad
   fixture and stay silent on the corresponding good one, the allowlist
   must drop matched violations and report stale entries, and the real
   source tree must lint clean against the checked-in allowlist. *)

open Tdb_lint_engine

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let rules_at ~path src =
  List.map (fun v -> Engine.rule_id v.Engine.v_rule) (Engine.check_source ~path src)

let fires rule ~path src = List.mem rule (rules_at ~path src)

let check_fires name rule ~path src =
  Alcotest.(check bool) (name ^ ": " ^ rule ^ " fires") true (fires rule ~path src)

let check_silent name rule ~path src =
  Alcotest.(check bool) (name ^ ": " ^ rule ^ " silent") false (fires rule ~path src)

(* ------------------------------------------------------------------ *)
(* R1: polymorphic comparison                                          *)
(* ------------------------------------------------------------------ *)

let lib = "lib/collection/fixture.ml"

let test_r1 () =
  check_fires "poly =" "R1" ~path:lib "let f a b = a = b";
  check_fires "poly <>" "R1" ~path:lib "let f a b = a <> b";
  check_fires "applied compare" "R1" ~path:lib "let f a b = compare a b";
  check_fires "compare as value" "R1" ~path:lib "let f l = List.sort compare l";
  check_fires "Stdlib.compare" "R1" ~path:lib "let f a b = Stdlib.compare a b";
  check_fires "Hashtbl.hash" "R1" ~path:lib "let f x = Hashtbl.hash x";
  check_silent "String.equal" "R1" ~path:lib "let f a b = String.equal a b";
  check_silent "Int.compare as value" "R1" ~path:lib "let f l = List.sort Int.compare l";
  check_silent "int literal operand" "R1" ~path:lib "let f a = a = 0";
  check_silent "None operand" "R1" ~path:lib "let f a = a = None";
  check_silent "bool literal operand" "R1" ~path:lib "let f a = a = true";
  check_silent "nil operand" "R1" ~path:lib "let f a = a = []";
  check_silent "length result operand" "R1" ~path:lib "let f s = String.length s = 3";
  check_silent "compare-to-zero idiom" "R1" ~path:lib "let f a b = String.compare a b = 0"

(* ------------------------------------------------------------------ *)
(* R2: constant-time comparison of secret-derived values               *)
(* ------------------------------------------------------------------ *)

let test_r2 () =
  let crypto = "lib/crypto/fixture.ml" and chunk = "lib/chunk/fixture.ml" in
  check_fires "String.equal on mac" "R2" ~path:crypto "let ok mac expected = String.equal mac expected";
  check_fires "= on digest" "R2" ~path:chunk "let ok digest expected = digest = expected";
  check_fires "record field mac" "R2" ~path:chunk "let ok r e = String.equal r.mac e";
  check_fires "suffix ident" "R2" ~path:crypto "let ok commit_mac e = String.equal commit_mac e";
  check_silent "Ct.equal_string" "R2" ~path:crypto "let ok mac expected = Ct.equal_string mac expected";
  check_silent "component boundary (stage)" "R2" ~path:crypto "let ok stage e = String.equal stage e";
  (* Outside the constant-time scope the same code is acceptable. *)
  check_silent "outside ct dirs" "R2" ~path:"lib/tpcb/fixture.ml"
    "let ok mac expected = String.equal mac expected"

(* ------------------------------------------------------------------ *)
(* R3: banned modules in the trusted layers                            *)
(* ------------------------------------------------------------------ *)

let test_r3 () =
  let chunk = "lib/chunk/fixture.ml" in
  check_fires "Random in trusted" "R3" ~path:chunk "let x () = Random.int 5";
  check_fires "Obj.magic in trusted" "R3" ~path:"lib/crypto/fixture.ml" "let f x = Obj.magic x";
  check_fires "Marshal in trusted" "R3" ~path:"lib/objstore/fixture.ml"
    "let f x = Marshal.to_string x []";
  check_fires "open Random" "R3" ~path:chunk "open Random\nlet x () = int 5";
  check_silent "Random outside trusted" "R3" ~path:"lib/tpcb/fixture.ml" "let x () = Random.int 5";
  check_silent "Drbg is fine" "R3" ~path:chunk "let x d = Drbg.generate d 16"

(* ------------------------------------------------------------------ *)
(* R4: partial/unsafe functions and catch-all handlers                 *)
(* ------------------------------------------------------------------ *)

let test_r4 () =
  check_fires "List.hd" "R4" ~path:lib "let f l = List.hd l";
  check_fires "List.nth" "R4" ~path:lib "let f l = List.nth l 3";
  check_fires "Option.get" "R4" ~path:lib "let f o = Option.get o";
  check_fires "Bytes.unsafe_get" "R4" ~path:lib "let f b = Bytes.unsafe_get b 0";
  check_fires "Bytes.unsafe_to_string" "R4" ~path:lib "let f b = Bytes.unsafe_to_string b";
  check_fires "catch-all try" "R4" ~path:lib "let f g = try g () with _ -> ()";
  check_silent "pattern match" "R4" ~path:lib "let f l = match l with [] -> 0 | x :: _ -> x";
  check_silent "List.nth_opt" "R4" ~path:lib "let f l = List.nth_opt l 3";
  check_silent "specific exception" "R4" ~path:lib "let f g = try g () with Not_found -> ()";
  check_silent "Bytes.get" "R4" ~path:lib "let f b = Bytes.get b 0"

(* ------------------------------------------------------------------ *)
(* R5 + Driver.scan over a synthetic tree                              *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let test_r5_scan () =
  let root = Filename.temp_file "tdb_lint" "" in
  Sys.remove root;
  Unix.mkdir root 0o700;
  Unix.mkdir (Filename.concat root "lib") 0o700;
  let p name = Filename.concat (Filename.concat root "lib") name in
  write_file (p "good.ml") "let x = 1";
  write_file (p "good.mli") "val x : int";
  write_file (p "bare.ml") "let y = 2";
  let report = Driver.scan ~root [ "lib" ] in
  Alcotest.(check int) "files checked" 2 report.Driver.files_checked;
  let r5 =
    List.filter (fun v -> Engine.rule_equal v.Engine.v_rule Engine.R5) report.Driver.violations
  in
  Alcotest.(check int) "one missing interface" 1 (List.length r5);
  (match r5 with
  | [ v ] -> Alcotest.(check string) "names the bare module" "lib/bare.ml" v.Engine.v_file
  | _ -> Alcotest.fail "expected exactly one R5 violation")

(* ------------------------------------------------------------------ *)
(* Allowlist                                                           *)
(* ------------------------------------------------------------------ *)

let test_allowlist () =
  let file = Filename.temp_file "tdb_allow" ".txt" in
  write_file file
    "# comment\n\nlib/a.ml:3:R1  # grandfathered\nlib/b.ml:9:R4\n";
  let entries = Allowlist.load file in
  Alcotest.(check int) "two entries" 2 (List.length entries);
  let v_hit =
    { Engine.v_file = "lib/a.ml"; v_line = 3; v_col = 0; v_rule = Engine.R1; v_msg = "m" }
  in
  let v_miss =
    { Engine.v_file = "lib/a.ml"; v_line = 4; v_col = 0; v_rule = Engine.R1; v_msg = "m" }
  in
  let kept, stale = Allowlist.filter entries [ v_hit; v_miss ] in
  Alcotest.(check int) "only the unmatched violation kept" 1 (List.length kept);
  (match kept with
  | [ v ] -> Alcotest.(check int) "kept the line-4 one" 4 v.Engine.v_line
  | _ -> Alcotest.fail "expected one kept violation");
  Alcotest.(check int) "lib/b.ml entry is stale" 1 (List.length stale);
  (* wrong rule does not match *)
  let wrong_rule = { v_hit with Engine.v_rule = Engine.R4 } in
  let kept', _ = Allowlist.filter entries [ wrong_rule ] in
  Alcotest.(check int) "rule must match too" 1 (List.length kept');
  (* malformed entries are hard errors *)
  write_file file "lib/a.ml:notanumber:R1\n";
  Alcotest.(check bool) "malformed line raises" true
    (match Allowlist.load file with exception Failure _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* R6: interprocedural secret taint (via Driver.check_program)         *)
(* ------------------------------------------------------------------ *)

let prog_violations units =
  (Driver.check_program units).Driver.violations

let prog_fires name rule units =
  Alcotest.(check bool) (name ^ ": " ^ rule ^ " fires") true
    (List.exists
       (fun v -> String.equal (Engine.rule_id v.Engine.v_rule) rule)
       (prog_violations units))

let prog_silent name rule units =
  let hits =
    List.filter
      (fun v -> String.equal (Engine.rule_id v.Engine.v_rule) rule)
      (prog_violations units)
  in
  Alcotest.(check string) (name ^ ": " ^ rule ^ " silent") ""
    (String.concat "; "
       (List.map (fun v -> Printf.sprintf "%s:%d %s" v.Engine.v_file v.Engine.v_line v.Engine.v_msg) hits))

let chunk_fix = "lib/chunk/fixture.ml"

let test_r6 () =
  (* A derived key shipped to the untrusted store, verbatim. *)
  prog_fires "key to store write" "R6"
    [ (chunk_fix, "let leak st = Untrusted_store.write st 0 (Secret_store.derive ())") ];
  (* The seal pipeline sanitizes: unseal -> seal -> write is the design. *)
  prog_silent "seal sanitizes" "R6"
    [
      ( chunk_fix,
        "let roundtrip st sec buf =\n\
        \  let pt = Security.unseal sec buf in\n\
        \  let sealed = Security.seal sec pt in\n\
        \  Untrusted_store.write st 0 sealed" );
    ];
  (* ... but writing the plaintext itself is a violation. *)
  prog_fires "unseal to store write" "R6"
    [
      ( chunk_fix,
        "let bad st sec buf =\n\
        \  let pt = Security.unseal sec buf in\n\
        \  Untrusted_store.write st 0 pt" );
    ];
  (* Taint survives a tuple and two helper hops: the projection helper
     returns its tainted component, the stash helper forwards its
     argument to the sink, and the violation lands at the call site. *)
  prog_fires "taint through tuple + helpers" "R6"
    [
      ( chunk_fix,
        "let second (_, b) = b\n\
         let stash st x = Untrusted_store.write st 0 x\n\
         let bad st sec buf =\n\
        \  let pair = (1, Security.unseal sec buf) in\n\
        \  stash st (second pair)" );
    ];
  (* Same shape, clean payload: no violation. *)
  prog_silent "clean value through helpers" "R6"
    [
      ( chunk_fix,
        "let second (_, b) = b\n\
         let stash st x = Untrusted_store.write st 0 x\n\
         let ok st buf =\n\
        \  let pair = (1, buf) in\n\
        \  stash st (second pair)" );
    ];
  (* MACs and digests are one-way: safe to ship. *)
  prog_silent "digest sanitizes" "R6"
    [
      ( chunk_fix,
        "let ok st sec buf =\n\
        \  let pt = Security.unseal sec buf in\n\
        \  Untrusted_store.write st 0 (Sha256.digest pt)" );
    ];
  (* Interprocedural across files: the helper lives in another module. *)
  prog_fires "cross-module taint" "R6"
    [
      ("lib/chunk/helper.ml", "let stash st x = Untrusted_store.write st 0 x");
      ( chunk_fix,
        "let bad st sec buf = Helper.stash st (Security.unseal sec buf)" );
    ];
  (* Outside the report dirs the same flow is not an error (lib/platform
     implements the boundary). *)
  prog_silent "platform is below the line" "R6"
    [
      ( "lib/platform/fixture.ml",
        "let leak st = Untrusted_store.write st 0 (Secret_store.derive ())" );
    ]

(* ------------------------------------------------------------------ *)
(* R7: lock discipline (via Driver.check_program)                      *)
(* ------------------------------------------------------------------ *)

let server_fix = "lib/server/fixture.ml"

let test_r7 () =
  let prelude =
    "let mu = Mutex.create ()\nlet mu2 = Mutex.create ()\nlet cond = Condition.create ()\n"
  in
  (* Balanced lock/unlock, and waiting on the mutex actually held: fine. *)
  prog_silent "balanced + correct wait" "R7"
    [
      ( server_fix,
        prelude
        ^ "let ok () = Mutex.lock mu; Mutex.unlock mu\n\
           let ok2 () = Mutex.lock mu; Condition.wait cond mu; Mutex.unlock mu" );
    ];
  (* Condition.wait on a mutex other than the one held. *)
  prog_fires "wait on wrong mutex" "R7"
    [
      ( server_fix,
        prelude ^ "let bad () = Mutex.lock mu; Condition.wait cond mu2; Mutex.unlock mu" );
    ];
  (* Blocking store I/O while holding a non-exempt mutex. *)
  prog_fires "blocking sync under mutex" "R7"
    [
      ( server_fix,
        prelude ^ "let bad st = Mutex.lock mu; Untrusted_store.sync st; Mutex.unlock mu" );
    ];
  (* The same I/O under a documented io-lock (Object_store.mu — the
     canonical name comes from the defining file) is the design, not a
     violation. *)
  prog_silent "io-exempt lock" "R7"
    [
      ( "lib/objstore/object_store.ml",
        "let sync_under_mu (t : t) st = Mutex.lock t.mu; Untrusted_store.sync st; Mutex.unlock t.mu" );
    ];
  (* Re-locking a mutex already held. *)
  prog_fires "self deadlock" "R7"
    [ (server_fix, prelude ^ "let bad () = Mutex.lock mu; Mutex.lock mu; Mutex.unlock mu") ];
  (* A wrapper in the with_mu style: the thunk's body runs under the
     wrapper's lock, so blocking inside the lambda is caught. *)
  prog_fires "blocking inside wrapped thunk" "R7"
    [
      ( server_fix,
        prelude
        ^ "let with_mu f = Mutex.lock mu; Fun.protect ~finally:(fun () -> Mutex.unlock mu) f\n\
           let bad () = with_mu (fun () -> Thread.delay 0.1)" );
    ];
  (* A cross-module lock-order cycle, visible only through summaries:
     Alpha locks its mutex then calls Beta (which locks Beta's), and
     vice versa. *)
  let alpha =
    "let mu = Mutex.create ()\n\
     let touch () = Mutex.lock mu; Mutex.unlock mu\n\
     let ab () = Mutex.lock mu; Beta.poke (); Mutex.unlock mu"
  in
  let beta =
    "let mu = Mutex.create ()\n\
     let poke () = Mutex.lock mu; Mutex.unlock mu\n\
     let ba () = Mutex.lock mu; Alpha.touch (); Mutex.unlock mu"
  in
  let vs =
    prog_violations [ ("lib/server/alpha.ml", alpha); ("lib/server/beta.ml", beta) ]
  in
  Alcotest.(check bool) "lock-order cycle detected" true
    (List.exists
       (fun v ->
         Engine.rule_equal v.Engine.v_rule Engine.R7
         && String.length v.Engine.v_msg >= 16
         && String.equal (String.sub v.Engine.v_msg 0 16) "lock-order cycle")
       vs);
  (* Consistent ordering (both paths lock Alpha before Beta): no cycle. *)
  let beta_ok =
    "let mu = Mutex.create ()\nlet poke () = Mutex.lock mu; Mutex.unlock mu"
  in
  prog_silent "consistent order" "R7"
    [ ("lib/server/alpha.ml", alpha); ("lib/server/beta.ml", beta_ok) ]

(* R7, domain rules: spawned bodies, coordinator-only effects, spinning. *)
let test_r7_domains () =
  let prelude = "let mu = Mutex.create ()\n" in
  (* Pure work on a spawned domain: fine. *)
  prog_silent "pure domain body" "R7"
    [ (chunk_fix, "let ok buf = Domain.spawn (fun () -> Sha256.digest buf)") ];
  (* A DRBG draw inside a spawned body destroys IV-draw ordering. *)
  prog_fires "drbg draw in domain body" "R7"
    [ (chunk_fix, "let bad g = Domain.spawn (fun () -> Drbg.generate g 16)") ];
  (* Same misuse, hidden behind a helper: the l_draws summary carries it. *)
  prog_fires "transitive seal in domain body" "R7"
    [
      ( chunk_fix,
        "let seal_one sec x = Security.seal sec x\n\
         let bad sec x = Domain.spawn (fun () -> seal_one sec x)" );
    ];
  (* The coordinator itself may draw freely. *)
  prog_silent "draw on the coordinator" "R7"
    [ (chunk_fix, "let ok g = Drbg.generate g 16") ];
  (* Domain.join is a blocking call: not allowed under a choreography
     mutex. *)
  prog_fires "domain join under mutex" "R7"
    [
      ( chunk_fix,
        prelude ^ "let bad d = Mutex.lock mu; let r = Domain.join d in Mutex.unlock mu; r" );
    ];
  (* Spinning on an Atomic while holding a mutex burns the hold time. *)
  prog_fires "atomic spin under mutex" "R7"
    [
      ( chunk_fix,
        prelude
        ^ "let bad flag = Mutex.lock mu; while Atomic.get flag do () done; Mutex.unlock mu" );
    ];
  (* The same spin without a lock held is ordinary lock-free waiting. *)
  prog_silent "atomic spin unlocked" "R7"
    [ (chunk_fix, "let ok flag = while Atomic.get flag do () done") ]

(* ------------------------------------------------------------------ *)
(* Allowlist refresh                                                   *)
(* ------------------------------------------------------------------ *)

let test_refresh () =
  let file = Filename.temp_file "tdb_allow" ".txt" in
  write_file file
    "# Header comment survives verbatim.\n\n\
     lib/a.ml:3:R1  # grandfathered comparison\n\
     lib/b.ml:9:R4\n";
  let v l rule = { Engine.v_file = "lib/a.ml"; v_line = l; v_col = 0; v_rule = rule; v_msg = "m" } in
  (* The R1 site drifted from line 3 to line 7; the R4 entry's violation
     is gone entirely. *)
  let { Allowlist.r_lines; r_updated; r_unmatched } =
    Allowlist.refresh file [ v 7 Engine.R1 ]
  in
  Alcotest.(check int) "one entry re-pointed" 1 r_updated;
  Alcotest.(check int) "one entry unmatched" 1 (List.length r_unmatched);
  (match r_unmatched with
  | [ e ] -> Alcotest.(check string) "the dead grant is the R4 one" "lib/b.ml" e.Allowlist.a_file
  | _ -> Alcotest.fail "expected exactly one unmatched entry");
  Alcotest.(check (list string)) "file regenerated, comments preserved"
    [
      "# Header comment survives verbatim.";
      "";
      "lib/a.ml:7:R1  # grandfathered comparison";
      "lib/b.ml:9:R4";
    ]
    r_lines;
  (* An exact match outranks a nearer violation of the same rule: entry
     at line 3 stays put even with a drifted candidate at line 4. *)
  write_file file "lib/a.ml:3:R1  # exact\n";
  let { Allowlist.r_lines; r_updated; _ } =
    Allowlist.refresh file [ v 4 Engine.R1; v 3 Engine.R1 ]
  in
  Alcotest.(check int) "exact match not re-pointed" 0 r_updated;
  Alcotest.(check (list string)) "line untouched" [ "lib/a.ml:3:R1  # exact" ] r_lines

(* ------------------------------------------------------------------ *)
(* The real tree lints clean                                           *)
(* ------------------------------------------------------------------ *)

(* Every [.ml] under [rel], as a parsed unit with a repo-relative path. *)
let rec tree_units ~root rel =
  let abs = Filename.concat root rel in
  if Sys.is_directory abs then
    Sys.readdir abs |> Array.to_list
    |> List.filter (fun n -> not (String.equal n "_build" || Char.equal n.[0] '.'))
    |> List.concat_map (fun n -> tree_units ~root (rel ^ "/" ^ n))
  else if Filename.check_suffix rel ".ml" then
    [ Dataflow.parse_unit ~path:rel (In_channel.with_open_bin abs In_channel.input_all) ]
  else []

(* A table key naming a module of the tree must name one of its
   definitions: renaming [Chunk_cache.find] would otherwise drop R6
   coverage without a single violation. *)
let check_keys_resolve ~root dirs =
  let prog = Dataflow.build (List.concat_map (tree_units ~root) dirs) in
  let in_tree m = List.exists (fun u -> String.equal u.Dataflow.u_module m) prog.Dataflow.units in
  let unresolved =
    Sources.(taint_sources @ taint_sanitizers @ taint_sinks @ blocking_calls @ coordinator_only)
    |> List.filter (fun (k : Sources.fn_key) ->
           in_tree k.k_module && not (Hashtbl.mem prog.Dataflow.by_key (k.k_module, k.k_name)))
    |> List.map (fun (k : Sources.fn_key) -> k.k_module ^ "." ^ k.k_name)
  in
  Alcotest.(check (list string)) "every table key resolves" [] unresolved

let test_real_tree_clean () =
  (* `dune runtest` runs from test/, `dune exec` from the project root. *)
  let root = if Sys.file_exists "lib" && Sys.is_directory "lib" then "." else ".." in
  let report = Driver.scan ~root [ "lib"; "bin"; "bench" ] in
  check_keys_resolve ~root [ "lib"; "bin"; "bench" ];
  Alcotest.(check bool) "scanned a real tree" true (report.Driver.files_checked > 30);
  Alcotest.(check bool) "built a real call graph" true (report.Driver.stats.Driver.st_call_edges > 200);
  let entries = Allowlist.load (Filename.concat root "lint_allow.txt") in
  let kept, stale = Allowlist.filter entries report.Driver.violations in
  let show vs =
    String.concat "; "
      (List.map (fun v -> Printf.sprintf "%s:%d:%s" v.Engine.v_file v.Engine.v_line
                    (Engine.rule_id v.Engine.v_rule)) vs)
  in
  Alcotest.(check string) "no unallowed violations" "" (show kept);
  Alcotest.(check int) "no stale allow entries" 0 (List.length stale)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 polymorphic comparison" `Quick test_r1;
          Alcotest.test_case "R2 constant-time comparison" `Quick test_r2;
          Alcotest.test_case "R3 banned modules" `Quick test_r3;
          Alcotest.test_case "R4 partial functions" `Quick test_r4;
          Alcotest.test_case "R6 secret taint" `Quick test_r6;
          Alcotest.test_case "R7 lock discipline" `Quick test_r7;
          Alcotest.test_case "R7 domain rules" `Quick test_r7_domains;
        ] );
      ( "driver",
        [
          Alcotest.test_case "R5 via scan" `Quick test_r5_scan;
          Alcotest.test_case "allowlist" `Quick test_allowlist;
          Alcotest.test_case "allowlist refresh" `Quick test_refresh;
          Alcotest.test_case "real tree clean" `Quick test_real_tree_clean;
        ] );
    ]
