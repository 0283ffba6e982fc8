(** The replication follower: tails a primary's archive feed and keeps a
    local store converged on the primary's snapshots.

    Trust model — the follower shares the primary's platform secret (it is
    the same *device* in the paper's sense, scaled out) but trusts nothing
    it receives: every frame's MAC and hash-chain value is re-verified
    against the follower's own persisted chain state before a byte of the
    store changes ({!Tdb_backup.Backup_store.apply_stream}). The publisher,
    the network and the follower's archive are all untrusted transport.

    Crash model — an apply is one durable chunk-store commit carrying the
    restored chunks, the deallocations and the advanced chain state, so a
    crash mid-ingest (or a torn/tampered frame) leaves the follower at the
    previous consistent snapshot; on restart it re-subscribes from its
    persisted chain position and catches up.

    Convergence — a frame that cannot extend the follower's chain raises
    {!Tdb_backup.Backup_store.Invalid_backup}; the follower drops the
    connection and alternates resubscription positions on consecutive
    rejects: first from its own chain state (a tampered frame in the
    primary's archive may be transient — retry it), then from genesis (a
    diverged history needs the publisher to restart it from the newest
    full, which {!Tdb_backup.Backup_store.apply_stream} applies as an
    in-place re-bootstrap). A follower *ahead* of its primary refuses the
    rollback forever — [frames_rejected] climbs and an operator must
    re-seed it. Applies run through {!Tdb_objstore.Object_store.ingest},
    which waits for read transactions to drain (2PL quiesce) and flushes
    the object cache, so read-only sessions served over the same store
    stay serializable across snapshot switches. *)

module B = Tdb_backup.Backup_store

type config = { poll : float  (** reconnect/backoff delay, seconds *) }

let default_config = { poll = 0.2 }

type status = {
  applied_id : int;  (** last backup id applied (0 = none yet) *)
  applied_seq : int;  (** primary commit sequence the store reflects *)
  primary_id : int;  (** newest archive id, per the last heartbeat *)
  primary_seq : int;  (** primary commit sequence, per the last heartbeat *)
  frames_applied : int;
  frames_rejected : int;  (** frames that failed verification *)
  reconnects : int;
  connected : bool;
}

type t = {
  os : Tdb_objstore.Object_store.t;
  bs : B.t;
  from : Tdb_server.Server.addr;
  cfg : config;
  mu : Mutex.t;
  mutable st : status;
  mutable fd : Unix.file_descr option;  (** live feed socket, for stop *)
  mutable stopping : bool;
  mutable reject_streak : int;  (** consecutive connections ended by a bad frame *)
  mutable thread : Thread.t option;
}

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let status t = with_mu t (fun () -> t.st)
let update t f = with_mu t (fun () -> t.st <- f t.st)

let connect (addr : Tdb_server.Server.addr) : Unix.file_descr =
  match addr with
  | Tdb_server.Server.Unix_path path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | Tdb_server.Server.Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      fd

exception Bad_frame

(* Apply one verified frame. [Object_store.ingest] refuses while a read
   transaction holds locks; wait it out — readers are short-lived and the
   frame is already in hand. *)
let apply_frame (t : t) (stream : string) : unit =
  let rec go () =
    if with_mu t (fun () -> t.stopping) then ()
    else
      match Tdb_objstore.Object_store.ingest t.os (fun _cs -> B.apply_stream t.bs stream) with
      | None ->
          Thread.delay 0.002;
          go ()
      | Some h ->
          (* keep the verified frame: point-in-time restore from the
             follower needs its own archive *)
          Tdb_platform.Archival_store.put (B.archive t.bs) ~name:(B.stream_name h) stream;
          t.reject_streak <- 0;
          update t (fun st ->
              {
                st with
                applied_id = h.B.id;
                applied_seq = h.B.seq;
                frames_applied = st.frames_applied + 1;
              })
  in
  go ()

let feed_loop (t : t) (fd : Unix.file_descr) : unit =
  (* Odd streak: retry from our own chain state (the bad frame may have
     been transient). Even nonzero streak: start over from genesis so the
     publisher re-seeds us from the newest full. *)
  let sub =
    if t.reject_streak > 0 && Int.equal (t.reject_streak land 1) 0 then
      { B.last_id = 0; chain = "genesis"; base_snapshot = None }
    else B.chain_state t.bs
  in
  Tdb_server.Proto.write_frame fd
    (Tdb_server.Proto.encode_request
       (Tdb_server.Proto.Subscribe { r_last_id = sub.B.last_id; r_chain = sub.B.chain }));
  let rec loop () =
    if with_mu t (fun () -> t.stopping) then ()
    else begin
      (match Tdb_server.Proto.decode_response (Tdb_server.Proto.read_frame fd) with
      | Tdb_server.Proto.Rep_frame { f_name = _; f_stream } -> (
          match apply_frame t f_stream with
          | () -> ()
          | exception B.Invalid_backup _ ->
              (* a frame that does not extend our chain: tampered feed or
                 diverged history. Drop the connection; the next
                 subscription alternates between retrying our position and
                 a genesis restart (see [feed_loop]). *)
              update t (fun st -> { st with frames_rejected = st.frames_rejected + 1 });
              t.reject_streak <- t.reject_streak + 1;
              raise Bad_frame)
      | Tdb_server.Proto.Rep_heartbeat { h_last_id; h_seq; h_counter = _ } ->
          update t (fun st -> { st with primary_id = h_last_id; primary_seq = h_seq })
      | Tdb_server.Proto.Error_ { tag; msg } -> failwith (Printf.sprintf "subscribe refused: %s: %s" tag msg)
      | _ -> raise Bad_frame);
      loop ()
    end
  in
  loop ()

let run (t : t) : unit =
  let rec go () =
    if not (with_mu t (fun () -> t.stopping)) then begin
      (match connect t.from with
      | fd ->
          with_mu t (fun () ->
              t.fd <- Some fd;
              t.st <- { t.st with connected = true });
          Fun.protect
            ~finally:(fun () ->
              with_mu t (fun () ->
                  t.fd <- None;
                  t.st <- { t.st with connected = false });
              match Unix.close fd with () -> () | exception Unix.Unix_error (_, _, _) -> ())
            (fun () ->
              (* Hello handshake, then switch the connection to the feed *)
              Tdb_server.Proto.write_frame fd
                (Tdb_server.Proto.encode_request
                   (Tdb_server.Proto.Hello
                      { r_magic = Tdb_server.Proto.magic; r_version = Tdb_server.Proto.version }));
              (match Tdb_server.Proto.decode_response (Tdb_server.Proto.read_frame fd) with
              | Tdb_server.Proto.Hello_ok _ -> ()
              | _ -> raise Bad_frame);
              match feed_loop t fd with
              | () -> ()
              | exception End_of_file -> ()
              | exception Bad_frame -> ()
              | exception Tdb_server.Proto.Proto_error _ -> ()
              | exception Tdb_pickle.Pickle.Error _ -> ()
              | exception Unix.Unix_error (_, _, _) -> ())
      | exception Unix.Unix_error (_, _, _) -> ());
      if not (with_mu t (fun () -> t.stopping)) then begin
        update t (fun st -> { st with reconnects = st.reconnects + 1 });
        Thread.delay t.cfg.poll;
        go ()
      end
    end
  in
  go ()

let start ?(config = default_config) ~(os : Tdb_objstore.Object_store.t) ~(backups : B.t)
    ~(from : Tdb_server.Server.addr) () : t =
  (* subscription writes can race a primary shutting down; surface EPIPE
     as a Unix_error (handled by the reconnect loop), not a fatal signal *)
  (match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
  | () -> ()
  | exception Invalid_argument _ -> ());
  let st0 = B.chain_state backups in
  let t =
    {
      os;
      bs = backups;
      from;
      cfg = config;
      mu = Mutex.create ();
      st =
        {
          applied_id = st0.B.last_id;
          applied_seq = 0;
          primary_id = 0;
          primary_seq = 0;
          frames_applied = 0;
          frames_rejected = 0;
          reconnects = 0;
          connected = false;
        };
      fd = None;
      stopping = false;
      reject_streak = 0;
      thread = None;
    }
  in
  t.thread <- Some (Thread.create (fun () -> run t) ());
  t

let stop (t : t) : unit =
  let fd =
    with_mu t (fun () ->
        t.stopping <- true;
        t.fd)
  in
  (match fd with
  | Some fd -> ( match Unix.shutdown fd Unix.SHUTDOWN_ALL with () -> () | exception Unix.Unix_error (_, _, _) -> ())
  | None -> ());
  match t.thread with None -> () | Some th -> Thread.join th

(* Wait (bounded) until the follower has applied through the primary's
   newest archive id as reported by heartbeats — the convergence predicate
   tests and the CLI poll on. *)
let converged (t : t) : bool =
  let st = status t in
  st.connected && st.primary_id > 0 && st.applied_id >= st.primary_id

let wait_converged ?(timeout = 30.) (t : t) : bool =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if converged t then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()
