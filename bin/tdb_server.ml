(* tdb_server — serve a TDB database directory over a socket.

   The served schema is the repo's demo application schema (the TPC-B
   tables from lib/tpcb): collections account/teller/branch of balance
   records with a unique hash index on id and an "add" mutation, plus the
   append-only history collection. Raw typed object and root operations
   are exposed for the same classes. *)

open Cmdliner

let dir_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Database directory.")

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket at $(docv).")

let port_arg =
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc:"Listen on TCP $(docv) (loopback).")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Numeric address to bind with --port.")

let fresh_arg = Arg.(value & flag & info [ "fresh" ] ~doc:"Create a fresh database (overwrites any existing one).")

let idle_arg =
  Arg.(value & opt float 0. & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc:"Drop sessions idle longer than $(docv) (0 = never).")

let replica_every_arg =
  Arg.(
    value & opt int 0
    & info [ "replica-every" ] ~docv:"N"
        ~doc:"Emit an incremental backup to the replication feed every $(docv) durable commits (0 = never).")

let serve_cmd =
  let run dir socket port host fresh idle_timeout replica_every =
    let addr =
      match (socket, port) with
      | Some path, None -> Tdb.Server.Unix_path path
      | None, Some p -> Tdb.Server.Tcp (host, p)
      | None, None -> Tdb.Server.Unix_path (Filename.concat dir "tdb.sock")
      | Some _, Some _ ->
          prerr_endline "tdb_server: --socket and --port are mutually exclusive";
          exit 2
    in
    if replica_every < 0 then begin
      prerr_endline "tdb_server: --replica-every must be >= 0";
      exit 2
    end;
    let device = Tdb.Device.at_dir dir in
    let store_config = { Tdb.Chunk_config.default with Tdb.Chunk_config.replica_interval_commits = replica_every } in
    let db =
      if fresh then Tdb.create ~config:store_config device else Tdb.open_existing ~config:store_config device
    in
    let config = { Tdb.Server.default_config with Tdb.Server.idle_timeout } in
    let srv = Tdb.Server.create ~config ~backups:db.Tdb.backups db.Tdb.objects addr in
    Tdb_tpcb.Net_driver.expose_schema srv;
    (match addr with
    | Tdb.Server.Unix_path p -> Printf.printf "tdb_server: listening on %s" p
    | Tdb.Server.Tcp (h, _) -> Printf.printf "tdb_server: listening on %s:%d" h (Tdb.Server.port srv));
    Printf.printf " (idle timeout %s)\n%!"
      (if idle_timeout > 0. then Printf.sprintf "%.0fs" idle_timeout else "off");
    Tdb.Server.serve srv;
    Tdb.close db
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Serve a database over a Unix-domain or TCP socket.")
    Term.(const run $ dir_arg $ socket_arg $ port_arg $ host_arg $ fresh_arg $ idle_arg $ replica_every_arg)

(* Follower mode: tail a primary's archive feed into a local database
   directory and serve it read-only over a socket of its own. The
   follower's directory must hold a copy of the primary's secret file
   (frames verify against the shared platform secret). *)
let replicate_cmd =
  let from_socket =
    Arg.(value & opt (some string) None & info [ "from-socket" ] ~docv:"PATH" ~doc:"Primary's Unix-domain socket.")
  in
  let from_port =
    Arg.(value & opt (some int) None & info [ "from-port" ] ~docv:"PORT" ~doc:"Primary's TCP port.")
  in
  let from_host =
    Arg.(value & opt string "127.0.0.1" & info [ "from-host" ] ~docv:"HOST" ~doc:"Primary's numeric address with --from-port.")
  in
  let poll_arg =
    Arg.(value & opt float 0.2 & info [ "poll" ] ~docv:"SECONDS" ~doc:"Reconnect backoff.")
  in
  let run dir socket port host fresh from_socket from_port from_host poll idle_timeout =
    let from =
      match (from_socket, from_port) with
      | Some path, None -> Tdb.Server.Unix_path path
      | None, Some p -> Tdb.Server.Tcp (from_host, p)
      | None, None | Some _, Some _ ->
          prerr_endline "tdb_server: replicate needs exactly one of --from-socket / --from-port";
          exit 2
    in
    let addr =
      match (socket, port) with
      | Some path, None -> Tdb.Server.Unix_path path
      | None, Some p -> Tdb.Server.Tcp (host, p)
      | None, None -> Tdb.Server.Unix_path (Filename.concat dir "tdb.sock")
      | Some _, Some _ ->
          prerr_endline "tdb_server: --socket and --port are mutually exclusive";
          exit 2
    in
    if not (Sys.file_exists (Filename.concat dir "secret")) then begin
      Printf.eprintf "tdb_server: %s/secret not found — copy the primary's secret file there first\n" dir;
      exit 2
    end;
    (* probe before [at_dir]: opening the device creates an empty [db] file *)
    let existing = Sys.file_exists (Filename.concat dir "db") in
    let device = Tdb.Device.at_dir dir in
    let db = if fresh || not existing then Tdb.create device else Tdb.open_existing device in
    let rep =
      Tdb.Replica.start
        ~config:{ Tdb.Replica.poll }
        ~os:db.Tdb.objects ~backups:db.Tdb.backups ~from ()
    in
    let config = { Tdb.Server.read_only = true; idle_timeout } in
    let srv = Tdb.Server.create ~config ~backups:db.Tdb.backups db.Tdb.objects addr in
    Tdb_tpcb.Net_driver.expose_schema srv;
    (match addr with
    | Tdb.Server.Unix_path p -> Printf.printf "tdb_server: follower listening on %s (read-only)\n%!" p
    | Tdb.Server.Tcp (h, _) ->
        Printf.printf "tdb_server: follower listening on %s:%d (read-only)\n%!" h (Tdb.Server.port srv));
    Tdb.Server.serve srv;
    Tdb.Replica.stop rep;
    Tdb.close db
  in
  Cmd.v
    (Cmd.info "replicate"
       ~doc:"Tail a primary's replication feed into $(docv) and serve it read-only.")
    Term.(const run $ dir_arg $ socket_arg $ port_arg $ host_arg $ fresh_arg $ from_socket $ from_port
          $ from_host $ poll_arg $ idle_arg)

let () =
  let doc = "TDB network service: sessions, transactions and group commit over a socket" in
  exit (Cmd.eval (Cmd.group ~default:Term.(ret (const (`Help (`Pager, None)))) (Cmd.info "tdb_server" ~doc ~version:"0.1.0") [ serve_cmd; replicate_cmd ]))
