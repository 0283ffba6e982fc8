(* tdb_server — serve a TDB database directory over a socket.

   The served schema is the repo's demo application schema (the TPC-B
   tables from lib/tpcb): collections account/teller/branch of balance
   records with a unique hash index on id and an "add" mutation, plus the
   append-only history collection. Clients reach the data only through
   these collections. *)

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
        ~doc:"Emit an incremental backup to the archive followers poll every $(docv) durable commits (0 = never).")

(* The address to listen on: --socket, --port, or DIR/tdb.sock. *)
let listen_addr dir socket port host =
  match (socket, port) with
  | Some path, None -> Tdb.Server.Unix_path path
  | None, Some p -> Tdb.Server.Tcp (host, p)
  | None, None -> Tdb.Server.Unix_path (Filename.concat dir "tdb.sock")
  | Some _, Some _ ->
      prerr_endline "tdb_server: --socket and --port are mutually exclusive";
      exit 2

let serve_cmd =
  let run dir socket port host fresh idle_timeout replica_every =
    let addr = listen_addr dir socket port host in
    if replica_every < 0 then begin
      prerr_endline "tdb_server: --replica-every must be >= 0";
      exit 2
    end;
    let db =
      Tdb.Device.or_exit (fun () ->
          if fresh then Tdb.init_dir dir;
          Tdb.open_existing (Tdb.Device.open_dir dir))
    in
    let config = { Tdb.Server.default_config with Tdb.Server.idle_timeout; replica_every } in
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

(* Follower mode: poll a primary's archive into a local database
   directory and serve it read-only over a socket of its own. The
   follower's directory must hold a copy of the primary's secret file
   (frames verify against the shared platform secret); a directory
   holding only that file, or missing any other, is bootstrapped under
   it. *)
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
    Arg.(value & opt float 0.05 & info [ "poll" ] ~docv:"SECONDS" ~doc:"Idle poll interval and reconnect delay.")
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
    let addr = listen_addr dir socket port host in
    let db =
      Tdb.Device.or_exit (fun () ->
          let bootstrap () =
            Tdb.init_dir ~key:(Tdb.Device.key_file (Filename.concat dir "secret")) dir;
            Tdb.Device.open_dir dir
          in
          let device =
            if fresh then bootstrap ()
            else
              match Tdb.Device.attempt (fun () -> Tdb.Device.open_dir dir) with
              | Ok d -> d
              | Error (Tdb.Device.Missing_file _) -> bootstrap ()
              | Error r -> raise (Tdb.Device.Refused r)
          in
          Tdb.open_existing device)
    in
    let rep =
      Tdb.Replica.start
        ~config:{ Tdb.Replica.poll }
        ~os:db.Tdb.objects ~backups:db.Tdb.backups ~from ()
    in
    let config = { Tdb.Server.default_config with Tdb.Server.read_only = true; idle_timeout } in
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
       ~doc:"Poll a primary's archive into $(docv) and serve it read-only.")
    Term.(const run $ dir_arg $ socket_arg $ port_arg $ host_arg $ fresh_arg $ from_socket $ from_port
          $ from_host $ poll_arg $ idle_arg)

let () =
  let doc = "TDB network service: sessions, transactions and group commit over a socket" in
  exit (Cmd.eval (Cmd.group ~default:Term.(ret (const (`Help (`Pager, None)))) (Cmd.info "tdb_server" ~doc ~version:"0.1.0") [ serve_cmd; replicate_cmd ]))
