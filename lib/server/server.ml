(** The TDB network service: a threaded server exposing an embedded
    object/collection store over Unix-domain or TCP sockets.

    One session per connection, one thread per session, at most one open
    transaction per session. The transported TDB is the embedded one —
    the object store's single state mutex still serializes store access
    (paper Section 4.2.3); what the server adds is the session discipline
    around it:

    - {b abort on disconnect}: a dead client's transaction is aborted the
      moment its socket closes, so it can never strand 2PL locks;
    - {b idle timeouts}: a session silent longer than the configured
      timeout is aborted and closed — same rationale;
    - {b lock-timeout aborts}: a {!Tdb_objstore.Lock_manager.Lock_timeout}
      aborts the session's transaction before the error is reported, so
      the deadlock the timeout broke is actually resolved (the client
      simply retries a fresh transaction);
    - {b group commit}: the object store coalesces concurrent durable
      commits ({!Tdb_objstore.Object_store.commit}) — one log force and
      one counter bump cover every session that commits in the window.

    A session answers nothing but a [Hello] until one succeeds, and ends
    after a refused one. Every data request then names a collection the
    operator exposed with {!expose_collection}: objects change only
    through a collection, so its indexes stay in step with its members,
    and a peer can reach no oid, root or class outside those
    collections. Collection mutations run server-side as registered named
    closures — the client sends a mutation name plus a pickled argument
    and gets the updated object back, one round trip, no shared-lock
    upgrade window. *)

open Tdb_objstore
open Tdb_collection
module P = Tdb_pickle.Pickle

type addr = Unix_path of string | Tcp of string * int

type config = {
  idle_timeout : float;  (** seconds of silence before a session is dropped; 0 = never *)
  read_only : bool;
      (** replication-follower mode: mutating requests and durable commits
          are refused with a typed ["read_only"] error; sessions read at
          the follower's restored snapshot *)
  replica_every : int;
      (** with an archive attached, emit an incremental backup every this
          many durable commits; 0 = never *)
}

let default_config = { idle_timeout = 0.; read_only = false; replica_every = 0 }

(* ------------------------------------------------------------------ *)
(* Exposure registry                                                   *)
(* ------------------------------------------------------------------ *)

(** A collection made reachable over the wire. [e_handle] is opened
    lazily (collection handles are store-level, so one open serves every
    session). *)
type 'a exposed = {
  e_name : string;
  e_schema : 'a Obj_class.t;
  e_indexers : 'a Indexer.generic list;
  e_mutations : (string, 'a -> P.reader -> unit) Hashtbl.t;
  mutable e_handle : 'a Cstore.collection option;
  mutable e_opening : bool;  (** an opener is at work outside [mu] *)
}

(** An exposure, existentially packed over its schema type. *)
type exposure = Exposure : 'a exposed -> exposure

type t = {
  os : Object_store.t;
  cfg : config;
  backups : Tdb_backup.Backup_store.t option;
      (** archive this server lists and serves (and, when
          [cfg.replica_every > 0], auto-extends) *)
  colls : (string, exposure) Hashtbl.t;
  listen_fd : Unix.file_descr;
  sock_path : string option;  (** unlinked on close *)
  mu : Mutex.t;  (** guards the mutable server state below *)
  drained : Condition.t;  (** signalled when a session ends *)
  opened : Condition.t;  (** signalled when a collection open settles *)
  live : (int, Unix.file_descr) Hashtbl.t;
  mutable next_session : int;
  mutable sessions_total : int;
  mutable committed : int;
  mutable aborted : int;
  mutable stopping : bool;
  mutable accept_thread : Thread.t option;
  mutable commits_since_emit : int;  (** durable commits since the last auto-emitted incremental *)
  mutable emitting : bool;  (** one session at a time runs the emission *)
}

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let listen_on (addr : addr) : Unix.file_descr * string option =
  match addr with
  | Unix_path path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, Some path)
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.listen fd 64;
      (fd, None)

(* A response can hit a peer that closed mid-request; take the EPIPE as a
   Unix_error, not a fatal signal. *)
let ignore_sigpipe () =
  match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with () -> () | exception Invalid_argument _ -> ()

let create ?(config = default_config) ?backups (os : Object_store.t) (addr : addr) : t =
  ignore_sigpipe ();
  let listen_fd, sock_path = listen_on addr in
  {
    os;
    cfg = config;
    backups;
    colls = Hashtbl.create 16;
    listen_fd;
    sock_path;
    mu = Mutex.create ();
    drained = Condition.create ();
    opened = Condition.create ();
    live = Hashtbl.create 16;
    next_session = 0;
    sessions_total = 0;
    committed = 0;
    aborted = 0;
    stopping = false;
    accept_thread = None;
    commits_since_emit = 0;
    emitting = false;
  }

let port (t : t) : int =
  match Unix.getsockname t.listen_fd with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> invalid_arg "Server.port: Unix-domain socket"

let expose_collection (t : t) ~name ~(schema : 'a Obj_class.t)
    ~(indexers : 'a Indexer.generic list)
    ?(mutations : (string * ('a -> P.reader -> unit)) list = []) () : unit =
  (match indexers with [] -> invalid_arg "Server.expose_collection: no indexers" | _ -> ());
  let tbl = Hashtbl.create 8 in
  List.iter (fun (n, f) -> Hashtbl.replace tbl n f) mutations;
  Hashtbl.replace t.colls name
    (Exposure
       {
         e_name = name;
         e_schema = schema;
         e_indexers = indexers;
         e_mutations = tbl;
         e_handle = None;
         e_opening = false;
       })

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

exception Reject of string * string
(** Internal: (tag, message) turned into a wire [Error_]. *)

let reject tag fmt = Printf.ksprintf (fun msg -> raise (Reject (tag, msg))) fmt

type session = {
  s_id : int;
  s_fd : Unix.file_descr;
  mutable s_ct : Cstore.t option;  (** the session's open transaction *)
}

let require_txn (s : session) : Cstore.t =
  match s.s_ct with None -> reject "no_txn" "no transaction open on this session" | Some ct -> ct

let lookup_coll (t : t) (name : string) : exposure =
  match Hashtbl.find_opt t.colls name with
  | None -> reject "not_exposed" "collection %S is not exposed by this server" name
  | Some e -> e

(* Open (or create, on first exposure against a fresh database) the
   collection behind [e], caching the handle: collection handles are
   store-level, so the first session to touch the exposure opens it for
   everyone.

   The open itself runs *outside* [t.mu]: opening takes object-store
   locks and can park in [Lock_manager.acquire] behind another session's
   transaction, and that session may in turn need [t.mu] for its own
   handle lookup — holding the server mutex across the open is a
   server-wide stall and a two-thread deadlock (flagged by lint R7).
   [t.mu] only guards the cache state machine: an [e_opening] flag
   elects one opener, late arrivals wait on [t.opened], and the winner
   publishes the handle (or its failure) under the mutex. *)
let coll_handle (t : t) (ct : Cstore.t) (ex : 'a exposed) : 'a Cstore.collection =
  let claimed = ref false in
  Mutex.lock t.mu;
  while Option.is_none ex.e_handle && not !claimed do
    if ex.e_opening then Condition.wait t.opened t.mu
    else begin
      ex.e_opening <- true;
      claimed := true
    end
  done;
  Mutex.unlock t.mu;
  if !claimed then begin
    (* Publish the result (or, on failure, the vacancy — a waiter then
       re-elects and retries) and wake everyone parked above. *)
    let settle handle =
      Mutex.lock t.mu;
      ex.e_opening <- false;
      ex.e_handle <- handle;
      Condition.broadcast t.opened;
      Mutex.unlock t.mu
    in
    match
      if Cstore.collection_exists ct ~name:ex.e_name then
        Cstore.open_collection ~indexers:ex.e_indexers ct ~name:ex.e_name ~schema:ex.e_schema
      else if t.cfg.read_only then
        (* a follower only serves what replication has delivered *)
        reject "read_only" "collection %S has not been replicated to this follower yet" ex.e_name
      else begin
        match ex.e_indexers with
        | [] -> reject "not_exposed" "collection %S has no indexers" ex.e_name
        | Indexer.Generic first :: rest ->
            let coll = Cstore.create_collection ct ~name:ex.e_name ~schema:ex.e_schema first in
            List.iter (fun (Indexer.Generic ix) -> Cstore.create_index ct coll ix) rest;
            coll
      end
    with
    | coll -> settle (Some coll)
    | exception err ->
        settle None;
        raise err
  end;
  match ex.e_handle with
  | None -> reject "server" "collection %S failed to open" ex.e_name
  | Some c -> c

(** An exposed collection and its handle, packed over the schema type. *)
type opened = Opened : 'a exposed * 'a Cstore.collection -> opened

(* The prelude of every collection request: the session's transaction and
   the named exposure's collection, opened on first touch. *)
let open_coll (t : t) (s : session) (coll : string) : Cstore.t * opened =
  let ct = require_txn s in
  let (Exposure ex) = lookup_coll t coll in
  (ct, Opened (ex, coll_handle t ct ex))

let find_indexer (type a) (indexers : a Indexer.generic list) (coll_name : string) (name : string) :
    a Indexer.generic =
  match
    List.find_opt (fun g -> String.equal (Indexer.generic_name g) name) indexers
  with
  | None -> reject "not_exposed" "index %S is not exposed on collection %S" name coll_name
  | Some g -> g

(* Position an exact-match iterator; [None] when the key has no object. *)
let with_exact (type a k) ct (coll : a Cstore.collection) (ix : (a, k) Indexer.t) (key_bytes : string)
    (f : a Cstore.iterator -> 'r) : 'r option =
  let key = Gkey.of_bytes ix.Indexer.key key_bytes in
  let it = Cstore.exact ct coll ix key in
  Fun.protect
    ~finally:(fun () -> Cstore.close it)
    (fun () -> if Cstore.at_end it then None else Some (f it))

let pack (type a) (schema : a Obj_class.t) (v : a) : string = Obj_class.pickle_value schema v

(* Follower mode: refuse anything that could change the store. Nondurable
   commit of a read-only transaction stays allowed — it writes nothing and
   is how a read session ends cleanly. *)
let check_read_only (t : t) (req : Proto.request) : unit =
  if t.cfg.read_only then
    match req with
    | Proto.Coll_insert _ | Proto.Coll_mutate _ ->
        reject "read_only" "this server is a replication follower: writes are refused"
    | Proto.Commit { durable = true } ->
        reject "read_only"
          "this server is a replication follower: durable commit refused (commit nondurably or abort)"
    | _ -> ()

(* Primary-side auto-emission: every [replica_every] durable
   commits, extend the archive with an incremental backup. The counter and
   a single-emitter election run under [t.mu]; the emission itself runs
   outside it (it takes the object store's state mutex via [with_store]). *)
let maybe_emit_incremental (t : t) : unit =
  match t.backups with
  | None -> ()
  | Some bs ->
      let interval = t.cfg.replica_every in
      if interval > 0 then begin
        Mutex.lock t.mu;
        t.commits_since_emit <- t.commits_since_emit + 1;
        let due = t.commits_since_emit >= interval && not t.emitting in
        if due then begin
          t.emitting <- true;
          t.commits_since_emit <- 0
        end;
        Mutex.unlock t.mu;
        if due then
          Fun.protect
            ~finally:(fun () ->
              Mutex.lock t.mu;
              t.emitting <- false;
              Mutex.unlock t.mu)
            (fun () ->
              match Object_store.with_store t.os (fun _cs -> Tdb_backup.Backup_store.backup_incremental bs) with
              | (_ : int) -> ()
              | exception e ->
                  (* emission is best-effort: the commit that triggered it
                     already succeeded, and the next interval retries *)
                  prerr_endline ("tdb_server: backup auto-emission failed: " ^ Printexc.to_string e))
      end

let handle_request (t : t) (s : session) (req : Proto.request) : Proto.response =
  check_read_only t req;
  match req with
  | Proto.Hello _ -> reject "proto" "this session has already said Hello"
  | Proto.Begin -> (
      match s.s_ct with
      | Some _ -> reject "txn_open" "session already has an open transaction"
      | None ->
          s.s_ct <- Some (Cstore.begin_ t.os);
          Proto.Ok_unit)
  | Proto.Commit { durable } ->
      let ct = require_txn s in
      s.s_ct <- None;
      Cstore.commit ~durable ct;
      Mutex.lock t.mu;
      t.committed <- t.committed + 1;
      Mutex.unlock t.mu;
      if durable then maybe_emit_incremental t;
      Proto.Ok_unit
  | Proto.Abort ->
      let ct = require_txn s in
      s.s_ct <- None;
      Cstore.abort ct;
      Mutex.lock t.mu;
      t.aborted <- t.aborted + 1;
      Mutex.unlock t.mu;
      Proto.Ok_unit
  | Proto.Coll_insert { coll; data } ->
      let ct, Opened (ex, c) = open_coll t s coll in
      let v = Obj_class.cast ex.e_schema (Obj_class.unpickle_value data) in
      Proto.Ok_oid (Cstore.insert ct c v)
  | Proto.Coll_find { coll; index; key } ->
      let ct, Opened (ex, c) = open_coll t s coll in
      let (Indexer.Generic ix) = find_indexer ex.e_indexers coll index in
      let found =
        with_exact ct c ix key (fun it -> (Cstore.current_oid it, pack ex.e_schema (Cstore.read it)))
      in
      Proto.Ok_found found
  | Proto.Coll_scan { coll; index; min; max; limit } ->
      let ct, Opened (ex, c) = open_coll t s coll in
      let (Indexer.Generic ix) = find_indexer ex.e_indexers coll index in
      let decode b = Gkey.of_bytes ix.Indexer.key b in
      let it =
        match (min, max) with
        | None, None -> Cstore.scan ct c ix
        | _ -> Cstore.range ct c ix ~min:(Option.map decode min) ~max:(Option.map decode max)
      in
      let cap = if Int.equal limit 0 then Stdlib.max_int else limit in
      Fun.protect
        ~finally:(fun () -> Cstore.close it)
        (fun () ->
          let acc = ref [] in
          let n = ref 0 in
          while (not (Cstore.at_end it)) && !n < cap do
            acc := (Cstore.current_oid it, pack ex.e_schema (Cstore.read it)) :: !acc;
            incr n;
            Cstore.advance it
          done;
          Proto.Ok_list (List.rev !acc))
  | Proto.Coll_mutate { coll; index; key; mutation; arg } -> (
      let ct, Opened (ex, c) = open_coll t s coll in
      let (Indexer.Generic ix) = find_indexer ex.e_indexers coll index in
      let mut =
        match Hashtbl.find_opt ex.e_mutations mutation with
        | None -> reject "not_exposed" "mutation %S is not exposed on collection %S" mutation coll
        | Some f -> f
      in
      let updated =
        with_exact ct c ix key (fun it ->
            let v = Cstore.write it in
            let rd = P.reader arg in
            mut v rd;
            P.expect_end rd;
            pack ex.e_schema v)
      in
      match updated with
      | None -> reject "not_found" "no object with that key in %S" coll
      | Some data -> Proto.Ok_data data)
  | Proto.Coll_size { coll } ->
      let ct, Opened (_, c) = open_coll t s coll in
      Proto.Ok_int (Cstore.size ct c)
  | Proto.Metrics ->
      let store =
        Object_store.with_store t.os (fun cs ->
            Tdb_chunk.Chunk_store.metrics cs
            @ match t.backups with Some bs -> Tdb_backup.Backup_store.metrics bs | None -> [])
      in
      let objects = Object_store.metrics t.os in
      Mutex.lock t.mu;
      let server =
        Tdb_chunk.Metrics.
          [
            ("server.sessions", Int (Hashtbl.length t.live));
            ("server.sessions_total", Int t.sessions_total);
            ("server.committed", Int t.committed);
            ("server.aborted", Int t.aborted);
          ]
      in
      Mutex.unlock t.mu;
      Proto.Ok_metrics (server @ objects @ store)
  | Proto.List_backups { after } -> (
      match t.backups with
      | None -> reject "no_archive" "this server has no archive attached"
      | Some bs ->
          let module B = Tdb_backup.Backup_store in
          let above = Object_store.with_store t.os (fun _cs -> B.index (B.archive bs) ~after) in
          Proto.Ok_list (List.filteri (fun i _ -> i < Proto.list_page) above))
  | Proto.Fetch_backup { name; off } -> (
      match t.backups with
      | None -> reject "no_archive" "this server has no archive attached"
      | Some bs ->
          let module B = Tdb_backup.Backup_store in
          (* only names the archive itself could have produced: the name is
             attacker-supplied input, not a path to resolve *)
          (match B.parse_name name with
          | None -> reject "not_found" "%S is not an archive stream name" name
          | Some _ -> ());
          let stream =
            Object_store.with_store t.os (fun _cs ->
                Tdb_platform.Archival_store.get (B.archive bs) ~name)
          in
          match stream with
          | None -> reject "not_found" "archive stream %S not found" name
          | Some s when off > String.length s ->
              reject "invalid" "offset %d is past the end of %S (%d bytes)" off name (String.length s)
          | Some s -> Proto.Ok_data (String.sub s off (min Proto.fetch_slice (String.length s - off))))
  | Proto.Bye -> Proto.Ok_unit

(* Abort the session's transaction, if any, counting it. *)
let abort_session_txn (t : t) (s : session) : unit =
  match s.s_ct with
  | None -> ()
  | Some ct ->
      s.s_ct <- None;
      Cstore.abort ct;
      Mutex.lock t.mu;
      t.aborted <- t.aborted + 1;
      Mutex.unlock t.mu

(* One request -> one response, mapping store exceptions to wire errors.
   A lock timeout aborts the transaction before reporting: the paper's
   timeout is a deadlock breaker, and a server that kept the deadlocked
   transaction's locks would not have broken anything. *)
let respond (t : t) (s : session) (req : Proto.request) : Proto.response =
  match handle_request t s req with
  | resp -> resp
  | exception Reject (tag, msg) -> Proto.Error_ { tag; msg }
  | exception Lock_manager.Lock_timeout { oid; txn = _ } ->
      abort_session_txn t s;
      Proto.Error_
        {
          tag = "lock_timeout";
          msg = Printf.sprintf "lock timeout on object %d; transaction aborted — retry" oid;
        }
  | exception Obj_class.Type_mismatch { expected; actual } ->
      Proto.Error_
        { tag = "type_mismatch"; msg = Printf.sprintf "expected class %s, stored %s" expected actual }
  | exception Obj_class.Unknown_class c ->
      Proto.Error_ { tag = "unknown_class"; msg = Printf.sprintf "class %S not registered" c }
  | exception Object_store.Unknown_object oid ->
      Proto.Error_ { tag = "unknown_object"; msg = Printf.sprintf "no object %d" oid }
  | exception Object_store.Removed_in_transaction oid ->
      Proto.Error_ { tag = "removed"; msg = Printf.sprintf "object %d removed in this transaction" oid }
  | exception Cstore.Concurrent_iterators ->
      Proto.Error_ { tag = "concurrent_iterators"; msg = "write requires a sole open iterator" }
  | exception Cstore.Unknown_index ix ->
      Proto.Error_ { tag = "unknown_index"; msg = ix }
  | exception Tdb_collection.Index.Duplicate_key { index; key = _ } ->
      Proto.Error_ { tag = "duplicate_key"; msg = Printf.sprintf "unique violation on index %S" index }
  | exception Tdb_collection.Index.Unsupported_query ix ->
      Proto.Error_ { tag = "unsupported_query"; msg = Printf.sprintf "index %S cannot range-scan" ix }
  | exception Tdb_chunk.Types.Tamper_detected msg -> Proto.Error_ { tag = "tamper"; msg }
  | exception P.Error msg -> Proto.Error_ { tag = "pickle"; msg }
  | exception Invalid_argument msg -> Proto.Error_ { tag = "invalid"; msg }
  | exception Failure msg -> Proto.Error_ { tag = "failed"; msg }

(* ------------------------------------------------------------------ *)
(* Session loop                                                        *)
(* ------------------------------------------------------------------ *)

let finish_session (t : t) (s : session) : unit =
  abort_session_txn t s;
  (match Unix.close s.s_fd with () -> () | exception Unix.Unix_error (_, _, _) -> ());
  Mutex.lock t.mu;
  Hashtbl.remove t.live s.s_id;
  Condition.broadcast t.drained;
  Mutex.unlock t.mu

(* The answer to a session's first frame: only a [Hello] in this server's
   magic and version is accepted. *)
let greet (req : Proto.request) : Proto.response =
  let refuse msg = Proto.Error_ { tag = "proto"; msg } in
  match req with
  | Proto.Hello { r_magic; _ } when not (String.equal r_magic Proto.magic) -> refuse "bad magic"
  | Proto.Hello { r_version; _ } when not (Int.equal r_version Proto.version) ->
      refuse (Printf.sprintf "protocol version %d not supported (server speaks %d)" r_version Proto.version)
  | Proto.Hello _ -> Proto.Hello_ok { a_version = Proto.version }
  | _ -> refuse "the first request of a session must be Hello"

let session_loop (t : t) (s : session) : unit =
  if t.cfg.idle_timeout > 0. then
    Unix.setsockopt_float s.s_fd Unix.SO_RCVTIMEO t.cfg.idle_timeout;
  let exchange answer =
    let req = Proto.decode_request (Proto.read_frame s.s_fd) in
    let resp = answer req in
    let frame = Proto.encode_response resp in
    (* an answer over the cap becomes a typed error that fits, so the
       session and its transaction survive *)
    let resp, frame =
      if String.length frame <= Proto.default_max_frame then (resp, frame)
      else
        let msg = Printf.sprintf "response of %d bytes exceeds the frame limit" (String.length frame) in
        let refused = Proto.Error_ { tag = "too_large"; msg } in
        (refused, Proto.encode_response refused)
    in
    Proto.write_frame s.s_fd frame;
    (req, resp)
  in
  let rec loop () = match exchange (respond t s) with Proto.Bye, _ -> () | _ -> loop () in
  (* no request reaches the store before the peer has agreed on the
     protocol; a refused greeting ends the session *)
  let session () = match exchange greet with _, Proto.Hello_ok _ -> loop () | _ -> () in
  Fun.protect
    ~finally:(fun () -> finish_session t s)
    (fun () ->
      match session () with
      | () -> ()
      | exception End_of_file -> () (* client disconnected; finally aborts its txn *)
      | exception Proto.Proto_error _ -> () (* garbage on the wire: drop the session *)
      | exception P.Error _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          () (* idle timeout fired: drop the session, aborting its txn *)
      | exception Unix.Unix_error (_, _, _) -> ()
      | exception e ->
          (* anything else is a server-side defect; drop the session rather
             than kill the process, but say so *)
          prerr_endline ("tdb_server: session error: " ^ Printexc.to_string e))

let accept_loop (t : t) : unit =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _peer ->
        let s =
          Mutex.lock t.mu;
          let id = t.next_session in
          t.next_session <- id + 1;
          t.sessions_total <- t.sessions_total + 1;
          Hashtbl.replace t.live id fd;
          Mutex.unlock t.mu;
          { s_id = id; s_fd = fd; s_ct = None }
        in
        ignore (Thread.create (fun () -> session_loop t s) ());
        loop ()
    | exception Unix.Unix_error (_, _, _) ->
        (* listener closed by [stop] (or a transient accept failure while
           stopping); only keep going if we are not shutting down *)
        let continue_ =
          Mutex.lock t.mu;
          let c = not t.stopping in
          Mutex.unlock t.mu;
          c
        in
        if continue_ then loop ()
  in
  loop ()

let start (t : t) : unit =
  match t.accept_thread with
  | Some _ -> invalid_arg "Server.start: already started"
  | None -> t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ())

let serve (t : t) : unit =
  match t.accept_thread with
  | Some _ -> invalid_arg "Server.serve: already started"
  | None ->
      t.accept_thread <- Some (Thread.self ());
      accept_loop t

let stop ?(timeout = 5.0) (t : t) : unit =
  Mutex.lock t.mu;
  t.stopping <- true;
  (* shut live sessions down: their blocked reads fail, each loop exits
     through its finally, aborting any open transaction *)
  Hashtbl.iter
    (fun _ fd ->
      match Unix.shutdown fd Unix.SHUTDOWN_ALL with
      | () -> ()
      | exception Unix.Unix_error (_, _, _) -> ())
    t.live;
  Mutex.unlock t.mu;
  (match Unix.close t.listen_fd with () -> () | exception Unix.Unix_error (_, _, _) -> ());
  (match t.sock_path with
  | Some p when Sys.file_exists p -> Unix.unlink p
  | Some _ | None -> ());
  (* wait (bounded) for session threads to drain so their aborts land *)
  let deadline = Unix.gettimeofday () +. timeout in
  Mutex.lock t.mu;
  while Hashtbl.length t.live > 0 && Unix.gettimeofday () < deadline do
    Mutex.unlock t.mu;
    Thread.delay 0.005;
    Mutex.lock t.mu
  done;
  Mutex.unlock t.mu
