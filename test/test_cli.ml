(* Damaged-directory matrix against the built tdb_cli: every subcommand
   that takes a directory, on copies of a database made by [init] then
   two [backup]s with one of [db], [counter], [secret] or [backups/]
   missing, emptied, truncated, garbled or with one byte flipped.

   Each run must exit 0 or 2, never with an internal error; [status] and
   [verify] must leave every byte as it was; a failed command must leave
   no file or directory it created, and [restore] must never write its
   source. *)

let cli =
  List.find Sys.file_exists [ "../bin/tdb_cli.exe"; "_build/default/bin/tdb_cli.exe" ]
  |> fun p -> if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let run args =
  Sys.command (Filename.quote_command cli args ~stdout:Filename.null ~stderr:Filename.null)

let rec remove_tree p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> remove_tree (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

let read p = In_channel.with_open_bin p In_channel.input_all
let write p s = Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc s)

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Sys.mkdir dst 0o700;
    Array.iter (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f)) (Sys.readdir src)
  end
  else write dst (read src)

(* Every path under [root] with a digest of its bytes ("dir" for a
   directory), sorted. *)
let snapshot root =
  let rec walk rel acc =
    let p = Filename.concat root rel in
    if Sys.is_directory p then
      Array.fold_left (fun acc f -> walk (Filename.concat rel f) acc) ((rel, "dir") :: acc) (Sys.readdir p)
    else (rel, Digest.to_hex (Digest.file p)) :: acc
  in
  List.sort compare (Array.fold_left (fun acc f -> walk f acc) [] (Sys.readdir root))

type damage = Missing | Empty | Bytes of (string -> string)

let damages =
  let garble s = String.init (String.length s) (fun i -> Char.chr ((i * 131 + 7) land 0xff)) in
  let flip s =
    if String.length s = 0 then s
    else begin
      let b = Bytes.of_string s in
      let i = String.length s / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
      Bytes.to_string b
    end
  in
  [
    ("missing", Missing);
    ("empty", Empty);
    ("truncated", Bytes (fun s -> String.sub s 0 (String.length s / 2)));
    ("garbage", Bytes garble);
    ("flipped", Bytes flip);
  ]

(* Emptying [backups/] removes its streams; the other damages apply to
   each stream. *)
let damage dir target d =
  let p = Filename.concat dir target in
  let each f = Array.iter (fun s -> f (Filename.concat p s)) (Sys.readdir p) in
  match d with
  | Missing -> remove_tree p
  | Empty when Sys.is_directory p -> each Sys.remove
  | Empty -> write p ""
  | Bytes f when Sys.is_directory p -> each (fun s -> write s (f (read s)))
  | Bytes f -> write p (f (read p))

let with_root f =
  let root = Filename.temp_dir "tdb-cli-matrix" "" in
  Fun.protect ~finally:(fun () -> remove_tree root) (fun () -> f root)

let base root =
  let b = Filename.concat root "base" in
  List.iter
    (fun args -> if run args <> 0 then failwith ("setup failed: " ^ String.concat " " args))
    [ [ "init"; b ]; [ "backup"; b ]; [ "backup"; b ] ];
  b

(* [command root case] returns the arguments to run and which paths
   under [root] the run must leave byte for byte as they were. *)
let matrix command () =
  with_root (fun root ->
      let base = base root in
      let failures = ref [] in
      List.iter
        (fun target ->
          List.iter
            (fun (dname, d) ->
              let case = Filename.concat root "case" in
              copy_tree base case;
              damage case target d;
              let before = snapshot root in
              let args, unchanged = command root case in
              let rc = run args in
              let after = snapshot root in
              let kept l = List.filter (fun (p, _) -> unchanged p) l in
              let fail what = failures := Printf.sprintf "%s %s: %s (exit %d)" target dname what rc :: !failures in
              if rc <> 0 && rc <> 2 then fail "exit neither 0 nor 2";
              if kept after <> kept before then fail "wrote what it must only read";
              if rc <> 0 && List.exists (fun (p, _) -> not (List.mem_assoc p before)) after then
                fail "left a path it created";
              List.iter (fun p -> if Sys.file_exists p then remove_tree p) [ case; Filename.concat root "to" ])
            damages)
        [ "db"; "counter"; "secret"; "backups" ];
      match List.rev !failures with [] -> () | l -> Alcotest.failf "\n  %s" (String.concat "\n  " l))

let ok what args = Alcotest.(check int) what 0 (run args)
let entries d = List.sort compare (Array.to_list (Sys.readdir d))

(* Restoring a directory into itself keeps its archive: the next backup
   joins the old streams, and a restore from them still finds a full. *)
let restore_in_place () =
  with_root (fun root ->
      let base = base root in
      let archive = Filename.concat base "backups" in
      let streams = snapshot archive in
      ok "restore D D" [ "restore"; base; base ];
      Alcotest.(check (list (pair string string))) "archive kept" streams (snapshot archive);
      Alcotest.(check (list string)) "nothing staged left" [ "backups"; "counter"; "db"; "secret" ] (entries base);
      ok "backup D" [ "backup"; base ];
      Alcotest.(check int) "next backup joins the archive" (List.length streams + 1) (List.length (entries archive));
      let e = Filename.concat root "e" in
      ok "restore D E" [ "restore"; base; e ];
      ok "verify E" [ "verify"; e ])

(* A point-in-time restore into a directory whose archive already holds a
   later stream is refused before anything is written: its next backup
   would take that stream's id and fork the chain, so that every later
   restore refuses. Into a new directory it restores. *)
let restore_point_in_time_in_place () =
  with_root (fun root ->
      let base = base root in
      let before = snapshot root in
      Alcotest.(check int) "restore --upto 1 D D" 2 (run [ "restore"; "--upto"; "1"; base; base ]);
      Alcotest.(check (list (pair string string))) "nothing written" before (snapshot root);
      ok "backup D" [ "backup"; base ];
      ok "restore D X" [ "restore"; base; Filename.concat root "x" ];
      let e = Filename.concat root "e" in
      ok "restore --upto 1 D E" [ "restore"; "--upto"; "1"; base; e ];
      ok "backup E" [ "backup"; e ];
      ok "restore E F" [ "restore"; e; Filename.concat root "f" ];
      ok "verify F" [ "verify"; Filename.concat root "f" ])

(* A restore reads only FROM's secret and archive: what is left of a dead
   device's directory when [db] and [counter] are lost is enough. *)
let restore_from_key_and_archive () =
  with_root (fun root ->
      let base = base root in
      List.iter (fun f -> Sys.remove (Filename.concat base f)) [ "db"; "counter" ];
      let before = snapshot base in
      let e = Filename.concat root "e" in
      ok "restore" [ "restore"; base; e ];
      Alcotest.(check (list (pair string string))) "FROM unchanged" before (snapshot base);
      ok "verify the restored copy" [ "verify"; e ])

(* A file-system error while moving a new database into place is a
   refusal (exit 2), and the staging directory goes with it. *)
let install_error () =
  with_root (fun root ->
      let d = Filename.concat root "d" in
      Sys.mkdir d 0o700;
      Sys.mkdir (Filename.concat d "db") 0o700;
      write (Filename.concat (Filename.concat d "db") "x") "";
      Alcotest.(check int) "init over a db directory" 2 (run [ "init"; d ]);
      Alcotest.(check bool) "no staging left" false
        (List.exists (fun f -> String.starts_with ~prefix:".new" f) (entries d)))

let () =
  let all _ = true and none _ = false in
  let on_case cmd unchanged _ c = ([ cmd; c ], unchanged) in
  let case name command = Alcotest.test_case name `Quick (matrix command) in
  Alcotest.run "tdb_cli"
    [
      ( "damaged-directory",
        [
          case "status" (on_case "status" all);
          case "verify" (on_case "verify" all);
          case "clean" (on_case "clean" none);
          case "backup" (on_case "backup" none);
          case "init" (on_case "init" none);
          case "restore to" (fun root c -> ([ "restore"; Filename.concat root "base"; c ], none));
          (* restore reads only FROM: everything outside TO stays as it was *)
          case "restore from" (fun root c ->
              ([ "restore"; c; Filename.concat root "to" ], fun p -> not (String.starts_with ~prefix:"to" p)));
          case "restore from a missing source" (fun root _ ->
              ([ "restore"; Filename.concat root "nosuch"; Filename.concat root "to" ], all));
        ] );
      ( "create and restore",
        [
          Alcotest.test_case "in place keeps the archive" `Quick restore_in_place;
          Alcotest.test_case "point in time in place is refused" `Quick restore_point_in_time_in_place;
          Alcotest.test_case "from secret and backups/ only" `Quick restore_from_key_and_archive;
          Alcotest.test_case "an install error is a refusal" `Quick install_error;
        ] );
    ]
