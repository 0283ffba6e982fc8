(** Wire protocol for the TDB network service: versioned, length-prefixed
    frames whose payloads are encoded with {!Tdb_pickle.Pickle} — never
    [Marshal]; the wire crosses a trust boundary and lint rule R3 bans
    unsafe serialization here mechanically.

    Every data request names a collection, so objects change only
    through a collection and its indexes. Object payloads travel in
    {!Tdb_objstore.Obj_class} packed form (class name + version embedded);
    index keys travel as {!Tdb_collection.Gkey} canonical bytes. *)

exception Proto_error of string
(** Malformed frame, unknown opcode, version mismatch, or oversized
    payload. *)

val version : int
val magic : string

val default_max_frame : int
(** Hard bound on frame payloads — the length prefix is attacker-supplied
    and must not size an allocation unchecked. *)

val list_page : int
(** Most entries one [List_backups] answer carries, so an index page fits
    a frame however long the archive grows (an entry is about 20 bytes).
    A shorter page is the last one. *)

val fetch_slice : int
(** Most stream bytes one [Fetch_backup] answer carries: a frame's cap
    less room for the response's own framing, so a backup stream of any
    size is fetched a slice at a time. A shorter slice is the last one. *)

(** {1 Messages} *)

type request =
  | Hello of { r_magic : string; r_version : int }
  | Begin
  | Commit of { durable : bool }
  | Abort
  | Coll_insert of { coll : string; data : string }
  | Coll_find of { coll : string; index : string; key : string }
  | Coll_scan of { coll : string; index : string; min : string option; max : string option; limit : int }
  | Coll_mutate of { coll : string; index : string; key : string; mutation : string; arg : string }
  | Coll_size of { coll : string }
  | Metrics  (** the server's and the store's named metrics *)
  | Bye
  | List_backups of { after : int }
      (** one page of the archive index: the (backup id, archive name)
          pairs with id above [after], in id order, at most {!list_page}
          of them *)
  | Fetch_backup of { name : string; off : int }
      (** one slice of an archive stream: at most {!fetch_slice} bytes
          from byte [off] of an opaque sealed backup frame the client
          verifies and unseals locally under the device secret *)

type response =
  | Hello_ok of { a_version : int }
  | Ok_unit
  | Ok_oid of int
  | Ok_data of string
  | Ok_found of (int * string) option
  | Ok_list of (int * string) list
  | Ok_int of int
  | Ok_metrics of Tdb_chunk.Metrics.t
  | Error_ of { tag : string; msg : string }

val encode_request : request -> string

val decode_request : string -> request
(** @raise Proto_error on an unknown opcode.
    @raise Tdb_pickle.Pickle.Error on malformed bytes. *)

val encode_response : response -> string

val decode_response : string -> response
(** @raise Proto_error on an unknown opcode.
    @raise Tdb_pickle.Pickle.Error on malformed bytes. *)

(** {1 Framing} *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one length-prefixed frame (handles short writes). *)

val read_frame : Unix.file_descr -> string
(** Read one frame of at most {!default_max_frame} bytes.
    @raise End_of_file on a clean disconnect (EOF on a frame boundary).
    @raise Proto_error on a torn frame or an oversized length prefix. *)
