(* tdb — command-line administration for TDB databases on disk.

   A database lives in a directory holding the untrusted store ([db]), the
   emulated one-way counter ([counter]), the secret-store image ([secret])
   and the backup archive ([backups/]). *)

open Cmdliner

let dir_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Database directory.")

let open_db dir = Tdb.open_existing (Tdb.Device.at_dir dir)

let human_bytes n =
  if n > 1_048_576 then Printf.sprintf "%.2f MiB" (float_of_int n /. 1_048_576.)
  else if n > 1024 then Printf.sprintf "%.1f KiB" (float_of_int n /. 1024.)
  else Printf.sprintf "%d B" n

(* --- init --- *)

let init_cmd =
  let run dir =
    Tdb.close (Tdb.create (Tdb.Device.at_dir dir));
    Printf.printf "initialized TDB database in %s\n" dir
  in
  Cmd.v (Cmd.info "init" ~doc:"Create a fresh database (overwrites any existing one).") Term.(const run $ dir_arg)

(* --- status --- *)

let status_cmd =
  let run dir =
    let db = open_db dir in
    Printf.printf "database: %s\n" dir;
    Printf.printf "backups:  %s\n"
      (match Tdb.Archival_store.list db.Tdb.device.Tdb.Device.archive with
      | [] -> "(none)"
      | l -> String.concat ", " l);
    Tdb.Metrics.print (Tdb.Chunk_store.metrics db.Tdb.chunks @ Tdb.Backup_store.metrics db.Tdb.backups);
    Tdb.close db
  in
  Cmd.v (Cmd.info "status" ~doc:"Open a database (running recovery + tamper checks) and print its metrics.")
    Term.(const run $ dir_arg)

(* --- verify --- *)

let verify_cmd =
  let run dir =
    match
      let db = open_db dir in
      (* walk every chunk through the Merkle tree *)
      let snap = Tdb.Chunk_store.snapshot db.Tdb.chunks in
      let n =
        Tdb.Chunk_store.fold_snapshot db.Tdb.chunks snap ~init:0 ~f:(fun acc _cid _data -> acc + 1)
      in
      Tdb.Chunk_store.release_snapshot db.Tdb.chunks snap;
      Tdb.close db;
      n
    with
    | n ->
        Printf.printf "OK: %d chunks validated against the Merkle tree, anchor and counter\n" n
    | exception Tdb.Tamper_detected msg ->
        Printf.printf "TAMPER DETECTED: %s\n" msg;
        exit 2
    | exception Tdb.Chunk_store.Recovery_failed msg ->
        Printf.printf "UNRECOVERABLE: %s\n" msg;
        exit 2
  in
  Cmd.v (Cmd.info "verify" ~doc:"Validate every chunk in the database against its hash tree.")
    Term.(const run $ dir_arg)

(* --- clean --- *)

let clean_cmd =
  let run dir =
    let db = open_db dir in
    let before = Tdb.Chunk_store.capacity db.Tdb.chunks in
    Tdb.idle_maintenance db;
    let after = Tdb.Chunk_store.capacity db.Tdb.chunks in
    Printf.printf "cleaned: capacity %s -> %s\n" (human_bytes before) (human_bytes after);
    Tdb.close db
  in
  Cmd.v (Cmd.info "clean" ~doc:"Run idle-time log cleaning.") Term.(const run $ dir_arg)

(* --- backup --- *)

let backup_cmd =
  let full = Arg.(value & flag & info [ "full" ] ~doc:"Force a full backup (default: incremental).") in
  let run dir full =
    let db = open_db dir in
    let id = if full then Tdb.backup_full db else Tdb.backup_incremental db in
    Printf.printf "backup #%d written to %s/backups\n" id dir;
    Tdb.close db
  in
  Cmd.v (Cmd.info "backup" ~doc:"Create a backup in the database's archival store.")
    Term.(const run $ dir_arg $ full)

(* --- restore --- *)

(* A restored database must live under the device secret that sealed its
   backups: create [dst] and copy the key file there before the
   destination device materializes a fresh one. *)
let prepare_target ?src_key dst =
  if not (Sys.file_exists dst) then Unix.mkdir dst 0o700;
  let dst_key = Filename.concat dst "secret" in
  match src_key with
  | Some src_key when Sys.file_exists src_key && not (Sys.file_exists dst_key) ->
      let ic = open_in_bin src_key in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o600 dst_key in
      output_string oc data;
      close_out oc
  | Some _ | None -> ()

let restore_cmd =
  let src = Arg.(required & pos 0 (some string) None & info [] ~docv:"FROM" ~doc:"Source database directory (its backups/ archive is read).") in
  let dst = Arg.(required & pos 1 (some string) None & info [] ~docv:"TO" ~doc:"Destination directory for the restored database.") in
  let upto = Arg.(value & opt (some int) None & info [ "upto" ] ~docv:"N" ~doc:"Restore only up to backup N (point-in-time).") in
  let run src dst upto =
    prepare_target ~src_key:(Filename.concat src "secret") dst;
    let from = Tdb.Device.at_dir src in
    let target = Tdb.Device.at_dir dst in
    match Tdb.restore ?upto ~from target with
    | db ->
        Printf.printf "restored into %s\n" dst;
        Tdb.close db
    | exception Tdb.Backup_store.Invalid_backup msg ->
        Printf.printf "restore refused: %s\n" msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "restore" ~doc:"Restore a database from validated backups (newest, or --upto N).")
    Term.(const run $ src $ dst $ upto)

(* --- client mode: talk to a running tdb_server --- *)

let addr_term =
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc:"Connect to a Unix-domain socket at $(docv).")
  in
  let port =
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc:"Connect to TCP $(docv).")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Numeric address for --port.")
  in
  let build socket port host =
    match (socket, port) with
    | Some path, None -> `Ok (Tdb.Server.Unix_path path)
    | None, Some p -> `Ok (Tdb.Server.Tcp (host, p))
    | None, None -> `Error (false, "one of --socket or --port is required")
    | Some _, Some _ -> `Error (false, "--socket and --port are mutually exclusive")
  in
  Term.(ret (const build $ socket $ port $ host))

let with_client addr f =
  match Tdb.Client.connect addr with
  | c ->
      Fun.protect ~finally:(fun () -> Tdb.Client.close c) (fun () -> f c)
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "cannot connect: %s\n" (Unix.error_message e);
      exit 2

let remote_status_cmd =
  let run addr = with_client addr (fun c -> Tdb.Metrics.print (Tdb.Client.metrics c)) in
  Cmd.v
    (Cmd.info "remote-status" ~doc:"Print a running server's metrics: its sessions and group commit, then the store's.")
    Term.(const run $ addr_term)

(* Remote point-in-time restore: fetch from a running server the frames
   a restore applies, picked by the same rule restore and the follower
   use, and rebuild a local database from them. The streams are opaque
   sealed frames — everything is re-verified locally under the operator's
   copy of the device secret, so neither the server nor the wire is
   trusted. *)
let remote_restore_cmd =
  let dst = Arg.(required & pos 0 (some string) None & info [] ~docv:"TO" ~doc:"Destination directory for the restored database.") in
  let upto = Arg.(value & opt (some int) None & info [ "upto" ] ~docv:"N" ~doc:"Restore only up to backup N (point-in-time).") in
  let secret =
    Arg.(value & opt (some string) None & info [ "secret" ] ~docv:"PATH"
           ~doc:"Device secret file matching the server's (copied to TO/secret). The fetched streams are sealed under it; without the matching key the restore fails verification.")
  in
  let run addr dst upto secret =
    prepare_target ?src_key:secret dst;
    let fetched =
      with_client addr (fun c ->
          match Tdb.Client.list_backups c with
          | index ->
              let index =
                match upto with None -> index | Some n -> List.filter (fun (id, _) -> id <= n) index
              in
              List.map
                (fun (_, name) -> (name, Tdb.Client.fetch_backup c ~name))
                (Tdb.Backup_store.select ~index ~last_id:0 ~reject_streak:0)
          | exception Tdb.Client.Server_error { tag; msg } ->
              Printf.printf "server refused: %s (%s)\n" msg tag;
              exit 2)
    in
    (match fetched with
    | [] ->
        Printf.printf "no backups on the server%s\n"
          (match upto with None -> "" | Some n -> Printf.sprintf " at or below #%d" n);
        exit 2
    | _ :: _ -> ());
    (* stage the streams into TO/backups, so the restored database keeps
       the archive it extends and the local validated restore runs over
       them unchanged *)
    let bdir = Filename.concat dst "backups" in
    if not (Sys.file_exists bdir) then Unix.mkdir bdir 0o700;
    List.iter
      (fun (name, stream) ->
        let oc =
          open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o600
            (Filename.concat bdir (Filename.basename name))
        in
        output_string oc stream;
        close_out oc)
      fetched;
    let device = Tdb.Device.at_dir dst in
    match Tdb.restore ?upto ~from:device device with
    | db ->
        Printf.printf "fetched %d stream%s; restored into %s\n" (List.length fetched)
          (match fetched with [ _ ] -> "" | _ -> "s")
          dst;
        Tdb.close db
    | exception Tdb.Backup_store.Invalid_backup msg ->
        Printf.printf "restore refused: %s\n" msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "remote-restore"
       ~doc:"Fetch the backup chain a restore applies from a running server and restore it locally (newest, or --upto N).")
    Term.(const run $ addr_term $ dst $ upto $ secret)

let remote_balance_cmd =
  let account = Arg.(required & pos 0 (some int) None & info [] ~docv:"ACCOUNT" ~doc:"Account id.") in
  let run addr account =
    with_client addr (fun c ->
        Tdb.Client.with_txn ~durable:false c (fun () ->
            match
              Tdb.Client.coll_find c ~coll:"account" ~index:"id" Tdb.Gkey.int account
                Tdb_tpcb.Workload.account_cls
            with
            | Some (oid, r) ->
                Printf.printf "account %d (oid %d): balance %d\n" account oid r.Tdb_tpcb.Workload.balance
            | None ->
                Printf.printf "no account %d\n" account;
                exit 1))
  in
  Cmd.v
    (Cmd.info "remote-balance" ~doc:"Look up an account balance on a running server (demo schema).")
    Term.(const run $ addr_term $ account)

(* A bounded TPC-B load driver against a running server's demo schema —
   what the CI end-to-end replication job drives the primary with. *)
let remote_tpcb_cmd =
  let txns = Arg.(value & opt int 100 & info [ "txns" ] ~docv:"N" ~doc:"Transactions to commit durably.") in
  let setup = Arg.(value & flag & info [ "setup" ] ~doc:"Create the demo records first (nondurable bulk load).") in
  let accounts = Arg.(value & opt int 100 & info [ "accounts" ] ~docv:"N" ~doc:"Accounts (with --setup).") in
  let seed = Arg.(value & opt string "cli-tpcb" & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic input seed.") in
  let run addr txns setup accounts seed =
    let scale =
      { Tdb_tpcb.Workload.quick_scale with
        Tdb_tpcb.Workload.accounts;
        tellers = max 1 (accounts / 10);
        branches = max 1 (accounts / 20);
      }
    in
    with_client addr (fun c ->
        if setup then
          Tdb.Client.with_txn ~durable:false c (fun () ->
              let load coll cls n =
                for id = 0 to n - 1 do
                  ignore
                    (Tdb.Client.coll_insert c ~coll cls (Tdb_tpcb.Workload.make_record ~id ~balance:0))
                done
              in
              load "account" Tdb_tpcb.Workload.account_cls scale.Tdb_tpcb.Workload.accounts;
              load "teller" Tdb_tpcb.Workload.teller_cls scale.Tdb_tpcb.Workload.tellers;
              load "branch" Tdb_tpcb.Workload.branch_cls scale.Tdb_tpcb.Workload.branches);
        let rng = Tdb.Crypto.Drbg.create ~seed in
        let retries = ref 0 in
        for h_id = 0 to txns - 1 do
          let input = Tdb_tpcb.Workload.gen_txn rng scale in
          retries := !retries + Tdb_tpcb.Net_driver.drive_txn c rng input ~h_id
        done;
        Printf.printf "committed %d TPC-B transactions (%d lock-timeout retries)\n" txns !retries)
  in
  Cmd.v
    (Cmd.info "remote-tpcb" ~doc:"Drive bounded TPC-B transactions against a running server (demo schema).")
    Term.(const run $ addr_term $ txns $ setup $ accounts $ seed)

(* Balance sums + history size: a cheap whole-database digest for
   comparing a primary and its replication follower. *)
let remote_sum_cmd =
  let run addr =
    with_client addr (fun c ->
        Tdb.Client.with_txn ~durable:false c (fun () ->
            let sum coll cls =
              List.fold_left
                (fun acc (_, r) -> acc + r.Tdb_tpcb.Workload.balance)
                0
                (Tdb.Client.coll_scan c ~coll ~index:"id" Tdb.Gkey.int cls)
            in
            Printf.printf "account %d teller %d branch %d history %d\n"
              (sum "account" Tdb_tpcb.Workload.account_cls)
              (sum "teller" Tdb_tpcb.Workload.teller_cls)
              (sum "branch" Tdb_tpcb.Workload.branch_cls)
              (Tdb.Client.coll_size c ~coll:"history")))
  in
  Cmd.v
    (Cmd.info "remote-sum"
       ~doc:"Print balance sums and history size (demo schema) — a digest to compare replicas with.")
    Term.(const run $ addr_term)

let () =
  let doc = "TDB: a trusted database system for Digital Rights Management" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "tdb" ~doc ~version:"0.1.0")
          [ init_cmd; status_cmd; verify_cmd; clean_cmd; backup_cmd; restore_cmd;
            remote_status_cmd; remote_restore_cmd; remote_balance_cmd; remote_tpcb_cmd;
            remote_sum_cmd ]))
