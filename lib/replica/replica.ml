(** The replication follower: polls a primary's archive over the wire
    protocol ([List_backups], [Fetch_backup]) and keeps a local store
    converged on the primary's snapshots.

    Trust model — the follower shares the primary's platform secret (it is
    the same *device* in the paper's sense, scaled out) but trusts nothing
    it receives: every frame's MAC and hash-chain value is re-verified
    against the follower's own persisted chain state before a byte of the
    store changes ({!Tdb_backup.Backup_store.apply_stream}). The primary's
    archive index, the network and the follower's archive are all
    untrusted transport; the index only steers which frames are fetched.

    Crash model — an apply is one durable chunk-store commit carrying the
    restored chunks, the deallocations and the advanced chain state, so a
    crash mid-ingest (or a torn/tampered frame) leaves the follower at the
    previous consistent snapshot; on restart it polls from its persisted
    chain position and catches up.

    Convergence — a frame that cannot extend the follower's chain raises
    {!Tdb_backup.Backup_store.Invalid_backup}; the follower stops that
    poll and {!select} alternates on consecutive rejects: an odd streak
    retries the frames after its own chain position (a tampered frame in
    the primary's archive may be transient), an even one starts from the
    newest full (a diverged history is re-bootstrapped in place by
    {!Tdb_backup.Backup_store.apply_stream}). A follower *ahead* of its
    primary refuses the rollback forever — [frames_rejected] climbs and an
    operator must re-seed it. Applies run through
    {!Tdb_objstore.Object_store.ingest}, which waits for read transactions
    to drain (2PL quiesce) and flushes the object cache, so read-only
    sessions served over the same store stay serializable across snapshot
    switches. *)

module B = Tdb_backup.Backup_store
module C = Tdb_server.Client

type config = { poll : float  (** idle poll interval and reconnect delay, seconds *) }

let default_config = { poll = 0.05 }

type status = {
  applied_id : int;  (** last backup id applied (0 = none yet) *)
  applied_seq : int;  (** primary commit sequence the store reflects *)
  primary_id : int;  (** newest id of the last listing, else [applied_id] *)
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
  mutable client : C.t option;  (** live connection, for stop *)
  mutable stopping : bool;
  mutable reject_streak : int;  (** consecutive polls ended by a bad frame *)
  mutable thread : Thread.t option;
}

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let status t = with_mu t (fun () -> t.st)
let update t f = with_mu t (fun () -> t.st <- f t.st)
let stopping t = with_mu t (fun () -> t.stopping)

let select ~(index : (int * string) list) ~(last_id : int) ~(reject_streak : int) : (int * string) list =
  let newest_full =
    List.fold_left
      (fun acc (id, name) -> match B.parse_name name with Some (_, `Full) -> max acc id | _ -> acc)
      0 index
  in
  let retry_full = reject_streak > 0 && Int.equal (reject_streak land 1) 0 in
  (* a follower behind the newest full starts there: the incrementals
     below it chain from a history the archive may no longer hold *)
  let first = if retry_full || newest_full > last_id + 1 then newest_full else last_id + 1 in
  List.filter (fun (id, _) -> id >= first) index |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Apply one verified frame. [Object_store.ingest] refuses while a read
   transaction holds locks; wait it out — readers are short-lived and the
   frame is already in hand. *)
let apply_frame (t : t) (stream : string) : unit =
  let rec go () =
    if stopping t then ()
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

(* One poll: list the primary's archive above our chain position, then
   fetch and apply what [select] picks, in order, up to the first frame
   that does not extend our chain. Returns whether anything was applied. *)
let poll (t : t) (c : C.t) : bool =
  let before = status t in
  let index = C.list_backups ~after:before.applied_id c in
  update t (fun st ->
      { st with primary_id = List.fold_left (fun m (id, _) -> max m id) before.applied_id index });
  let rec go = function
    | (_, name) :: rest when not (stopping t) -> (
        match apply_frame t (C.fetch_backup c ~name) with
        | () -> go rest
        | exception B.Invalid_backup _ ->
            update t (fun st -> { st with frames_rejected = st.frames_rejected + 1 });
            t.reject_streak <- t.reject_streak + 1)
    | _ -> ()
  in
  go (select ~index ~last_id:before.applied_id ~reject_streak:t.reject_streak);
  (status t).applied_id > before.applied_id

(* What a primary that went away, or misbehaved, raises: drop the
   connection and reconnect after [config.poll]. *)
let connection_lost = function
  | End_of_file | C.Server_error _ | C.Unexpected_response _ | Tdb_server.Proto.Proto_error _
  | Tdb_pickle.Pickle.Error _ | Unix.Unix_error (_, _, _) ->
      true
  | _ -> false

(* Connect, then poll until stopped; sleep [config.poll] only after a
   poll that applied nothing. *)
let session (t : t) : unit =
  let c = C.connect t.from in
  with_mu t (fun () ->
      t.client <- Some c;
      t.st <- { t.st with connected = true });
  Fun.protect
    ~finally:(fun () ->
      with_mu t (fun () ->
          t.client <- None;
          t.st <- { t.st with connected = false });
      C.close c)
    (fun () ->
      while not (stopping t) do
        if not (poll t c) then Thread.delay t.cfg.poll
      done)

let run (t : t) : unit =
  while not (stopping t) do
    (match session t with () -> () | exception e when connection_lost e -> ());
    if not (stopping t) then begin
      update t (fun st -> { st with reconnects = st.reconnects + 1 });
      Thread.delay t.cfg.poll
    end
  done

let start ?(config = default_config) ~(os : Tdb_objstore.Object_store.t) ~(backups : B.t)
    ~(from : Tdb_server.Server.addr) () : t =
  (* requests can race a primary shutting down; surface EPIPE as a
     Unix_error (handled by the reconnect loop), not a fatal signal *)
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
          frames_applied = 0;
          frames_rejected = 0;
          reconnects = 0;
          connected = false;
        };
      client = None;
      stopping = false;
      reject_streak = 0;
      thread = None;
    }
  in
  t.thread <- Some (Thread.create (fun () -> run t) ());
  t

let stop (t : t) : unit =
  (* under [mu], so the session cannot close the socket in between *)
  with_mu t (fun () ->
      t.stopping <- true;
      Option.iter C.shutdown t.client);
  match t.thread with None -> () | Some th -> Thread.join th

(* The follower has applied through the primary's newest archive id as of
   its last listing — the convergence predicate tests and the CLI poll on. *)
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
