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
    - {b group commit}: when enabled, durable commits land nondurably and
      are promoted by a shared {!Group_commit} barrier — one log force and
      one counter bump cover every session that commits in the window.

    Only {e exposed} classes and collections are reachable over the wire:
    the server dispatches through explicit registries populated by
    {!expose_class} / {!expose_collection}, never through the ambient
    class registry, so a remote peer cannot touch types the operator did
    not opt in. Collection mutations run server-side as registered named
    closures — the client sends a mutation name plus a pickled argument
    and gets the updated object back, one round trip, no shared-lock
    upgrade window. *)

open Tdb_objstore
open Tdb_collection
module P = Tdb_pickle.Pickle

type addr = Unix_path of string | Tcp of string * int

type config = {
  group_commit : bool;  (** coalesce durable commits into shared barriers *)
  idle_timeout : float;  (** seconds of silence before a session is dropped; 0 = never *)
  max_frame : int;
  read_only : bool;
      (** replication-follower mode: mutating requests and durable commits
          are refused with a typed ["read_only"] error; sessions read at
          the follower's restored snapshot *)
  publish_poll : float;  (** publisher idle poll interval, seconds *)
}

let default_config =
  {
    group_commit = true;
    idle_timeout = 0.;
    max_frame = Proto.default_max_frame;
    read_only = false;
    publish_poll = 0.05;
  }

(* ------------------------------------------------------------------ *)
(* Exposure registries                                                 *)
(* ------------------------------------------------------------------ *)

type packed_class = Packed_class : 'a Obj_class.t -> packed_class

(** A collection made reachable over the wire, existentially packed over
    its schema type. [handle] is opened lazily (collection handles are
    store-level, so one open serves every session). *)
type exposure =
  | Exposure : {
      e_name : string;
      e_schema : 'a Obj_class.t;
      e_indexers : 'a Indexer.generic list;
      e_mutations : (string, 'a -> P.reader -> unit) Hashtbl.t;
      mutable e_handle : 'a Cstore.collection option;
      mutable e_opening : bool;  (** an opener is at work outside [mu] *)
    }
      -> exposure

type t = {
  os : Object_store.t;
  cfg : config;
  gc : Group_commit.t option;
  backups : Tdb_backup.Backup_store.t option;
      (** archive this server publishes (and, when
          [Config.replica_interval_commits > 0], auto-extends) *)
  classes : (string, packed_class) Hashtbl.t;
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

(* Streaming writers (publisher frames, heartbeats) can hit a peer that
   closed mid-stream; take the EPIPE as a Unix_error, not a fatal signal. *)
let ignore_sigpipe () =
  match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with () -> () | exception Invalid_argument _ -> ()

let create ?(config = default_config) ?backups (os : Object_store.t) (addr : addr) : t =
  ignore_sigpipe ();
  let listen_fd, sock_path = listen_on addr in
  let gc =
    if config.group_commit then
      Some (Group_commit.create ~barrier:(fun () -> Object_store.durable_barrier os))
    else None
  in
  {
    os;
    cfg = config;
    gc;
    backups;
    classes = Hashtbl.create 16;
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

let expose_class (t : t) (cls : 'a Obj_class.t) : unit =
  Hashtbl.replace t.classes cls.Obj_class.name (Packed_class cls)

let expose_collection (t : t) ~name ~(schema : 'a Obj_class.t)
    ~(indexers : 'a Indexer.generic list)
    ?(mutations : (string * ('a -> P.reader -> unit)) list = []) () : unit =
  (match indexers with [] -> invalid_arg "Server.expose_collection: no indexers" | _ -> ());
  let tbl = Hashtbl.create 8 in
  List.iter (fun (n, f) -> Hashtbl.replace tbl n f) mutations;
  expose_class t schema;
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

let lookup_class (t : t) (name : string) : packed_class =
  match Hashtbl.find_opt t.classes name with
  | None -> reject "not_exposed" "class %S is not exposed by this server" name
  | Some p -> p

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
let coll_handle (t : t) (ct : Cstore.t) (e : exposure) : exposure =
  let (Exposure ex) = e in
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
  e

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
    | Proto.Set_root _ | Proto.Insert _ | Proto.Update _ | Proto.Remove _ | Proto.Coll_insert _
    | Proto.Coll_mutate _ ->
        reject "read_only" "this server is a replication follower: writes are refused"
    | Proto.Commit { durable = true } ->
        reject "read_only"
          "this server is a replication follower: durable commit refused (commit nondurably or abort)"
    | _ -> ()

(* Primary-side auto-emission: every [replica_interval_commits] durable
   commits, extend the archive with an incremental backup. The counter and
   a single-emitter election run under [t.mu]; the emission itself runs
   outside it (it takes the object store's state mutex via [with_store]). *)
let maybe_emit_incremental (t : t) : unit =
  match t.backups with
  | None -> ()
  | Some bs ->
      let interval =
        (Tdb_chunk.Shard_store.config (Object_store.chunk_store t.os)).Tdb_chunk.Config
        .replica_interval_commits
      in
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
  | Proto.Hello { r_magic; r_version } ->
      if not (String.equal r_magic Proto.magic) then reject "proto" "bad magic";
      if not (Int.equal r_version Proto.version) then
        reject "proto" "protocol version %d not supported (server speaks %d)" r_version Proto.version;
      Proto.Hello_ok { a_version = Proto.version }
  | Proto.Begin -> (
      match s.s_ct with
      | Some _ -> reject "txn_open" "session already has an open transaction"
      | None ->
          s.s_ct <- Some (Cstore.begin_ t.os);
          Proto.Ok_unit)
  | Proto.Commit { durable } ->
      let ct = require_txn s in
      s.s_ct <- None;
      (match t.gc with
      | Some gc when durable ->
          (* group commit: land nondurably (atomicity settled), then let a
             shared barrier buy durability for the whole window *)
          Cstore.commit ~durable:false ct;
          Group_commit.run gc
      | _ -> Cstore.commit ~durable ct);
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
  | Proto.Get_root name -> (
      match s.s_ct with
      | Some ct -> Proto.Ok_root (Object_store.root (Cstore.txn ct) name)
      | None -> Proto.Ok_root (Object_store.get_root t.os name))
  | Proto.Set_root (name, oid) ->
      let ct = require_txn s in
      Object_store.set_root (Cstore.txn ct) name oid;
      Proto.Ok_unit
  | Proto.Insert { data } -> (
      let ct = require_txn s in
      match Obj_class.unpickle_value data with
      | Obj_class.Value (cls, v) ->
          let (Packed_class _) = lookup_class t cls.Obj_class.name in
          Proto.Ok_oid (Object_store.insert (Cstore.txn ct) cls v))
  | Proto.Read { cls; oid } -> (
      let ct = require_txn s in
      match lookup_class t cls with
      | Packed_class c ->
          let r = Object_store.open_readonly (Cstore.txn ct) c oid in
          Proto.Ok_data (pack c (Object_store.deref r)))
  | Proto.Update { oid; data } -> (
      let ct = require_txn s in
      match Obj_class.unpickle_value data with
      | Obj_class.Value (cls, v) ->
          let (Packed_class _) = lookup_class t cls.Obj_class.name in
          Object_store.update (Cstore.txn ct) cls oid v;
          Proto.Ok_unit)
  | Proto.Remove { oid } ->
      let ct = require_txn s in
      Object_store.remove (Cstore.txn ct) oid;
      Proto.Ok_unit
  | Proto.Coll_insert { coll; data } -> (
      let ct = require_txn s in
      match coll_handle t ct (lookup_coll t coll) with
      | Exposure ex -> (
          match ex.e_handle with
          | None -> reject "server" "collection %S failed to open" coll
          | Some c ->
              let v = Obj_class.cast ex.e_schema (Obj_class.unpickle_value data) in
              Proto.Ok_oid (Cstore.insert ct c v)))
  | Proto.Coll_find { coll; index; key } -> (
      let ct = require_txn s in
      match coll_handle t ct (lookup_coll t coll) with
      | Exposure ex -> (
          match ex.e_handle with
          | None -> reject "server" "collection %S failed to open" coll
          | Some c ->
              let (Indexer.Generic ix) = find_indexer ex.e_indexers coll index in
              let found =
                with_exact ct c ix key (fun it ->
                    (Cstore.current_oid it, pack ex.e_schema (Cstore.read it)))
              in
              Proto.Ok_found found))
  | Proto.Coll_scan { coll; index; min; max; limit } -> (
      let ct = require_txn s in
      match coll_handle t ct (lookup_coll t coll) with
      | Exposure ex -> (
          match ex.e_handle with
          | None -> reject "server" "collection %S failed to open" coll
          | Some c ->
              let (Indexer.Generic ix) = find_indexer ex.e_indexers coll index in
              let decode b = Gkey.of_bytes ix.Indexer.key b in
              let it =
                match (min, max) with
                | None, None -> Cstore.scan ct c ix
                | _ ->
                    Cstore.range ct c ix ~min:(Option.map decode min) ~max:(Option.map decode max)
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
                  Proto.Ok_list (List.rev !acc))))
  | Proto.Coll_mutate { coll; index; key; mutation; arg } -> (
      let ct = require_txn s in
      match coll_handle t ct (lookup_coll t coll) with
      | Exposure ex -> (
          match ex.e_handle with
          | None -> reject "server" "collection %S failed to open" coll
          | Some c -> (
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
              | Some data -> Proto.Ok_data data)))
  | Proto.Coll_size { coll } -> (
      let ct = require_txn s in
      match coll_handle t ct (lookup_coll t coll) with
      | Exposure ex -> (
          match ex.e_handle with
          | None -> reject "server" "collection %S failed to open" coll
          | Some c -> Proto.Ok_int (Cstore.size ct c)))
  | Proto.Metrics ->
      let store = Object_store.with_store t.os Tdb_chunk.Shard_store.metrics in
      let barriers, coalesced =
        match t.gc with
        | None -> (0, 0)
        | Some gc ->
            let g = Group_commit.stats gc in
            (g.Group_commit.gc_batches, g.Group_commit.gc_coalesced)
      in
      Mutex.lock t.mu;
      let server =
        Tdb_chunk.Metrics.
          [
            ("server.sessions", Int (Hashtbl.length t.live));
            ("server.sessions_total", Int t.sessions_total);
            ("server.committed", Int t.committed);
            ("server.aborted", Int t.aborted);
            ("group_commit.barriers", Int barriers);
            ("group_commit.coalesced", Int coalesced);
          ]
      in
      Mutex.unlock t.mu;
      Proto.Ok_metrics (server @ store)
  | Proto.List_backups -> (
      match t.backups with
      | None -> reject "no_archive" "this server has no archive attached"
      | Some bs ->
          let module B = Tdb_backup.Backup_store in
          let index =
            Object_store.with_store t.os (fun _cs ->
                Tdb_platform.Archival_store.list (B.archive bs)
                |> List.filter_map (fun name ->
                       match B.parse_name name with Some (id, _) -> Some (id, name) | None -> None)
                |> List.sort (fun (a, _) (b, _) -> Int.compare a b))
          in
          Proto.Ok_list index)
  | Proto.Fetch_backup { name } -> (
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
          | Some s -> Proto.Ok_data s)
  | Proto.Bye -> Proto.Ok_unit
  | Proto.Subscribe _ ->
      (* reached only when the session loop could not switch this
         connection into publish mode *)
      reject "no_archive" "this server has no archive attached to publish"

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
(* Publisher                                                           *)
(* ------------------------------------------------------------------ *)

(* After a [Subscribe], the connection becomes a one-way archive feed:
   [Rep_frame]s in backup-id order, a [Rep_heartbeat] after every batch
   (and on idle ticks, as the liveness/lag signal), until the subscriber
   disconnects or the server stops.

   The publisher trusts nothing from the subscriber. Its position
   [(r_last_id, r_chain)] is only a cursor hint: if it claims our exact
   position but its chain value differs, or claims to be ahead of us, it
   has diverged and is restarted from the newest full. A subscriber whose
   stale chain we *cannot* detect simply fails verification on its own
   side and re-subscribes from genesis. Archive reads run under the object
   store's state mutex (serialized against emissions); socket writes
   happen outside every lock. *)
let publish_loop (t : t) (s : session) (bs : Tdb_backup.Backup_store.t) ~(sub_last_id : int)
    ~(sub_chain : string) : unit =
  let module B = Tdb_backup.Backup_store in
  let archive = B.archive bs in
  let cursor = ref sub_last_id in
  let first = ref true in
  let stopping () =
    Mutex.lock t.mu;
    let v = t.stopping in
    Mutex.unlock t.mu;
    v
  in
  while not (stopping ()) do
    let frames, hb =
      Object_store.with_store t.os (fun cs ->
          let st = B.chain_state bs in
          let index =
            Tdb_platform.Archival_store.list archive
            |> List.filter_map (fun name ->
                   match B.parse_name name with Some (id, k) -> Some (id, k, name) | None -> None)
            |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
          in
          let newest_full =
            List.fold_left
              (fun acc (id, k, _) -> match k with `Full -> max acc id | `Incremental -> acc)
              0 index
          in
          if !first then begin
            first := false;
            if
              !cursor > st.last_id
              || (Int.equal !cursor st.last_id && not (Tdb_crypto.Ct.equal_string sub_chain st.chain))
            then cursor := max 0 (newest_full - 1)
          end;
          (* a subscriber behind the newest full can only catch up from
             that full: incrementals below it chain from a history the
             archive may no longer hold *)
          if newest_full > !cursor + 1 then cursor := newest_full - 1;
          let to_send =
            List.filter_map
              (fun (id, _, name) ->
                if id > !cursor then
                  match Tdb_platform.Archival_store.get archive ~name with
                  | Some stream -> Some (id, name, stream)
                  | None -> None
                else None)
              index
          in
          let hb =
            Proto.Rep_heartbeat
              {
                h_last_id = st.last_id;
                h_seq = Tdb_chunk.Shard_store.commit_seq cs;
                h_counter = Tdb_chunk.Shard_store.counter_value cs;
              }
          in
          (to_send, hb))
    in
    List.iter
      (fun (id, name, stream) ->
        Proto.write_frame s.s_fd (Proto.encode_response (Proto.Rep_frame { f_name = name; f_stream = stream }));
        cursor := max !cursor id)
      frames;
    Proto.write_frame s.s_fd (Proto.encode_response hb);
    match frames with [] -> Thread.delay t.cfg.publish_poll | _ :: _ -> ()
  done

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

let session_loop (t : t) (s : session) : unit =
  if t.cfg.idle_timeout > 0. then
    Unix.setsockopt_float s.s_fd Unix.SO_RCVTIMEO t.cfg.idle_timeout;
  let rec loop () =
    let req = Proto.decode_request (Proto.read_frame ~max_frame:t.cfg.max_frame s.s_fd) in
    match (req, t.backups) with
    | Proto.Subscribe { r_last_id; r_chain }, Some bs ->
        (* mode switch: this connection is now a publish feed and never
           returns to request/response *)
        publish_loop t s bs ~sub_last_id:r_last_id ~sub_chain:r_chain
    | _ ->
        let resp = respond t s req in
        Proto.write_frame s.s_fd (Proto.encode_response resp);
        (match req with Proto.Bye -> () | _ -> loop ())
  in
  Fun.protect
    ~finally:(fun () -> finish_session t s)
    (fun () ->
      match loop () with
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
