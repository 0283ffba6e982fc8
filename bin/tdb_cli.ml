(* tdb — command-line administration for TDB databases on disk.

   A database lives in a directory holding the untrusted store ([db]), the
   emulated one-way counter ([counter]), the secret-store image ([secret])
   and the backup archive ([backups/]). Every command that takes a
   directory runs under [Tdb.Device.or_exit]: a damaged directory is
   refused with one line and exit 2. *)

open Cmdliner

let dir_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Database directory.")

let with_db dir f =
  Tdb.Device.or_exit (fun () ->
      let db = Tdb.open_existing (Tdb.Device.open_dir dir) in
      f db;
      Tdb.close db)

let human_bytes n =
  if n > 1_048_576 then Printf.sprintf "%.2f MiB" (float_of_int n /. 1_048_576.)
  else if n > 1024 then Printf.sprintf "%.1f KiB" (float_of_int n /. 1024.)
  else Printf.sprintf "%d B" n

(* --- init --- *)

let init_cmd =
  let run dir =
    Tdb.Device.or_exit (fun () -> Tdb.init_dir dir);
    Printf.printf "initialized TDB database in %s\n" dir
  in
  Cmd.v
    (Cmd.info "init" ~doc:"Create a fresh database (replaces any existing one, keeping its secret).")
    Term.(const run $ dir_arg)

(* --- status --- *)

let status_cmd =
  let run dir =
    Tdb.Device.or_exit (fun () ->
        let { Tdb.Device.store; secret; counter; archive } = Tdb.Device.open_dir dir in
        let chunks, _ = Tdb.Chunk_store.recover ~secret ~counter store in
        let backups = Tdb.Backup_store.create ~secret ~archive chunks in
        Printf.printf "database: %s\n" dir;
        Printf.printf "backups:  %s\n"
          (match Tdb.Archival_store.list archive with [] -> "(none)" | l -> String.concat ", " l);
        Tdb.Metrics.print (Tdb.Chunk_store.metrics chunks @ Tdb.Backup_store.metrics backups))
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Run recovery and tamper checks as open would, and print the metrics; writes nothing.")
    Term.(const run $ dir_arg)

(* --- verify --- *)

let verify_cmd =
  let run dir =
    let { Tdb.Chunk_store.replayed; dropped; counter_behind }, n =
      Tdb.Device.or_exit (fun () ->
          let { Tdb.Device.store; secret; counter; _ } = Tdb.Device.open_dir dir in
          Tdb.Chunk_store.verify ~secret ~counter store)
    in
    Printf.printf "OK: %d chunks validated against the Merkle tree, anchor and counter\n" n;
    Printf.printf "open would replay %d residual commits, drop %d past the durable prefix, %s\n" replayed dropped
      (if counter_behind then "and repair the counter (one behind)" else "counter in step")
  in
  Cmd.v (Cmd.info "verify" ~doc:"Check the database as open would, and every chunk; writes nothing.")
    Term.(const run $ dir_arg)

(* --- clean --- *)

let clean_cmd =
  let run dir =
    with_db dir (fun db ->
        let before = Tdb.Chunk_store.capacity db.Tdb.chunks in
        Tdb.idle_maintenance db;
        let after = Tdb.Chunk_store.capacity db.Tdb.chunks in
        Printf.printf "cleaned: capacity %s -> %s\n" (human_bytes before) (human_bytes after))
  in
  Cmd.v (Cmd.info "clean" ~doc:"Run idle-time log cleaning.") Term.(const run $ dir_arg)

(* --- backup --- *)

let backup_cmd =
  let full = Arg.(value & flag & info [ "full" ] ~doc:"Force a full backup (default: incremental).") in
  let run dir full =
    with_db dir (fun db ->
        let id = if full then Tdb.backup_full db else Tdb.backup_incremental db in
        Printf.printf "backup #%d written to %s/backups\n" id dir)
  in
  Cmd.v (Cmd.info "backup" ~doc:"Create a backup in the database's archival store.")
    Term.(const run $ dir_arg $ full)

(* --- restore --- *)

(* The id a restore of [chain] ends at (0 for none). *)
let last_id chain = List.fold_left (fun _ (id, _) -> id) 0 chain

let restore_cmd =
  let src = Arg.(required & pos 0 (some string) None & info [] ~docv:"FROM" ~doc:"Source database directory (only its secret and backups/ archive are read).") in
  let dst = Arg.(required & pos 1 (some string) None & info [] ~docv:"TO" ~doc:"Destination directory for the restored database.") in
  let upto = Arg.(value & opt (some int) None & info [ "upto" ] ~docv:"N" ~doc:"Restore only up to backup N (point-in-time).") in
  let run src dst upto =
    Tdb.Device.or_exit (fun () ->
        (* only FROM's secret and archive are read; the restored database
           lives under the secret that sealed its backups *)
        let key, from = Tdb.Device.open_archive src in
        let restored = last_id (Tdb.Backup_store.restore_chain ?upto (Tdb.Backup_store.index from ~after:0)) in
        Tdb.Device.create_dir ~key ~restored dst (fun d -> Tdb.close (Tdb.restore ?upto ~from d)));
    Printf.printf "restored into %s\n" dst
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

(* Run [f] on a fresh connection. A request the server refuses ends the
   command with its message and exit code 2, as a failed connect does. *)
let with_client addr f =
  match Tdb.Client.connect addr with
  | c -> (
      match Fun.protect ~finally:(fun () -> Tdb.Client.close c) (fun () -> f c) with
      | r -> r
      | exception Tdb.Client.Server_error { tag; msg } ->
          Printf.printf "server refused: %s (%s)\n" msg tag;
          exit 2)
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
    let fetched =
      with_client addr (fun c ->
          List.map
            (fun (id, name) -> (id, name, Tdb.Client.fetch_backup c ~name))
            (Tdb.Backup_store.restore_chain ?upto (Tdb.Client.list_backups c)))
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
    Tdb.Device.or_exit (fun () ->
        let restored = last_id (List.map (fun (id, name, _) -> (id, name)) fetched) in
        Tdb.Device.create_dir ?key:(Option.map Tdb.Device.key_file secret) ~restored dst (fun d ->
            List.iter (fun (_, name, stream) -> Tdb.Archival_store.put d.Tdb.Device.archive ~name:(Filename.basename name) stream) fetched;
            Tdb.close (Tdb.restore ?upto ~from:d.Tdb.Device.archive d)));
    Printf.printf "fetched %d stream%s; restored into %s\n" (List.length fetched)
      (match fetched with [ _ ] -> "" | _ -> "s")
      dst
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
