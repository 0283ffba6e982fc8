(** Client library for the TDB network service.

    A thin, synchronous RPC layer over {!Proto}: one request in flight per
    connection (a mutex serializes callers). Every data call names a
    collection the server exposes; objects travel pickled with their
    {!Tdb_objstore.Obj_class}, keys in {!Tdb_collection.Gkey} canonical
    form. Server-side errors
    surface as {!Server_error} carrying the wire tag — [lock_timeout]
    means the server already aborted the transaction and the client
    should retry a fresh one. *)

open Tdb_objstore
open Tdb_collection
module P = Tdb_pickle.Pickle

exception Server_error of { tag : string; msg : string }
exception Unexpected_response of string

type t = {
  fd : Unix.file_descr;
  mu : Mutex.t;
  mutable closed : bool;
}

let rpc (c : t) (req : Proto.request) : Proto.response =
  Mutex.lock c.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.mu)
    (fun () ->
      if c.closed then raise (Unexpected_response "connection closed");
      Proto.write_frame c.fd (Proto.encode_request req);
      match Proto.decode_response (Proto.read_frame c.fd) with
      | Proto.Error_ { tag; msg } -> raise (Server_error { tag; msg })
      | resp -> resp)

let unexpected what = raise (Unexpected_response ("expected " ^ what))
let expect_unit = function Proto.Ok_unit -> () | _ -> unexpected "Ok_unit"
let expect_oid = function Proto.Ok_oid oid -> oid | _ -> unexpected "Ok_oid"
let expect_data = function Proto.Ok_data d -> d | _ -> unexpected "Ok_data"

let connect (addr : Server.addr) : t =
  let domain, sa =
    match addr with
    | Server.Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Server.Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  let c = { fd; mu = Mutex.create (); closed = false } in
  (* a refused connect or handshake must not leak the socket: a follower
     retries against a downed primary every poll interval *)
  match
    Unix.connect fd sa;
    rpc c (Proto.Hello { r_magic = Proto.magic; r_version = Proto.version })
  with
  | Proto.Hello_ok _ -> c
  | _ ->
      Unix.close fd;
      unexpected "Hello_ok"
  | exception e ->
      Unix.close fd;
      raise e

let close (c : t) : unit =
  if not c.closed then begin
    (match rpc c Proto.Bye with
    | _ -> ()
    | exception Server_error _ -> ()
    | exception Unexpected_response _ -> ()
    | exception End_of_file -> ()
    | exception Proto.Proto_error _ -> ()
    | exception Unix.Unix_error (_, _, _) -> ());
    c.closed <- true;
    match Unix.close c.fd with () -> () | exception Unix.Unix_error (_, _, _) -> ()
  end

(** Drop the connection without saying goodbye — from the server's point
    of view the client died; its transaction must be aborted and its
    locks released. (Exists so tests can exercise exactly that path.) *)
let disconnect_abruptly (c : t) : unit =
  if not c.closed then begin
    c.closed <- true;
    match Unix.close c.fd with () -> () | exception Unix.Unix_error (_, _, _) -> ()
  end

let shutdown (c : t) : unit =
  match Unix.shutdown c.fd Unix.SHUTDOWN_ALL with () -> () | exception Unix.Unix_error (_, _, _) -> ()

(* --- transactions --- *)

let begin_ (c : t) : unit = expect_unit (rpc c Proto.Begin)
let commit ?(durable = true) (c : t) : unit = expect_unit (rpc c (Proto.Commit { durable }))
let abort (c : t) : unit = expect_unit (rpc c Proto.Abort)

let with_txn ?durable (c : t) (f : unit -> 'a) : 'a =
  begin_ c;
  match f () with
  | v ->
      commit ?durable c;
      v
  | exception e ->
      (match abort c with
      | () -> ()
      | exception Server_error _ -> () (* e.g. lock_timeout already aborted it *)
      | exception Unix.Unix_error (_, _, _) -> ()
      | exception End_of_file -> ());
      raise e

(* --- collections --- *)

let coll_insert (c : t) ~coll (cls : 'a Obj_class.t) (v : 'a) : int =
  expect_oid (rpc c (Proto.Coll_insert { coll; data = Obj_class.pickle_value cls v }))

let coll_find (c : t) ~coll ~index (key_ty : 'k Gkey.t) (key : 'k) (cls : 'a Obj_class.t) :
    (int * 'a) option =
  match rpc c (Proto.Coll_find { coll; index; key = Gkey.to_bytes key_ty key }) with
  | Proto.Ok_found None -> None
  | Proto.Ok_found (Some (oid, data)) -> Some (oid, Obj_class.cast cls (Obj_class.unpickle_value data))
  | _ -> unexpected "Ok_found"

let coll_scan (c : t) ~coll ~index ?(limit = 0) ?min_key ?max_key (key_ty : 'k Gkey.t)
    (cls : 'a Obj_class.t) : (int * 'a) list =
  let enc k = Gkey.to_bytes key_ty k in
  match
    rpc c
      (Proto.Coll_scan
         { coll; index; min = Option.map enc min_key; max = Option.map enc max_key; limit })
  with
  | Proto.Ok_list l ->
      List.map (fun (oid, data) -> (oid, Obj_class.cast cls (Obj_class.unpickle_value data))) l
  | _ -> unexpected "Ok_list"

let coll_mutate (c : t) ~coll ~index ~mutation (key_ty : 'k Gkey.t) (key : 'k)
    (cls : 'a Obj_class.t) ~(arg : P.writer -> unit) : 'a =
  let w = P.writer () in
  arg w;
  let data =
    expect_data
      (rpc c
         (Proto.Coll_mutate
            { coll; index; key = Gkey.to_bytes key_ty key; mutation; arg = P.contents w }))
  in
  Obj_class.cast cls (Obj_class.unpickle_value data)

let coll_size (c : t) ~coll : int =
  match rpc c (Proto.Coll_size { coll }) with Proto.Ok_int n -> n | _ -> unexpected "Ok_int"

(* --- introspection --- *)

let metrics (c : t) : Tdb_chunk.Metrics.t =
  match rpc c Proto.Metrics with Proto.Ok_metrics m -> m | _ -> unexpected "Ok_metrics"

(* --- archive --- *)

let list_backups ?(after = 0) (c : t) : (int * string) list =
  let rec pages after acc =
    match rpc c (Proto.List_backups { after }) with
    | Proto.Ok_list page -> (
        let acc = List.rev_append page acc in
        match List.rev page with
        | (last, _) :: _ when List.compare_length_with page Proto.list_page >= 0 ->
            if last <= after then unexpected "a List_backups page past its cursor";
            pages last acc
        | _ -> List.rev acc)
    | _ -> unexpected "Ok_list"
  in
  pages after []

let fetch_backup (c : t) ~(name : string) : string =
  expect_data (rpc c (Proto.Fetch_backup { name }))
