(** Wire protocol for the TDB network service: versioned, length-prefixed
    frames whose payloads are encoded with {!Tdb_pickle.Pickle} — never
    [Marshal]; the wire crosses a trust boundary and lint rule R3 bans
    unsafe serialization here mechanically.

    Typed object payloads travel in {!Tdb_objstore.Obj_class} packed form
    (class name + version embedded); index keys travel as
    {!Tdb_collection.Gkey} canonical bytes. *)

exception Proto_error of string
(** Malformed frame, unknown opcode, version mismatch, or oversized
    payload. *)

val version : int
val magic : string

val default_max_frame : int
(** Hard bound on frame payloads — the length prefix is attacker-supplied
    and must not size an allocation unchecked. *)

(** {1 Messages} *)

type request =
  | Hello of { r_magic : string; r_version : int }
  | Begin
  | Commit of { durable : bool }
  | Abort
  | Get_root of string
  | Set_root of string * int option
  | Insert of { data : string }  (** packed value; returns the new oid *)
  | Read of { cls : string; oid : int }  (** class-checked read *)
  | Update of { oid : int; data : string }  (** packed value replaces state *)
  | Remove of { oid : int }
  | Coll_insert of { coll : string; data : string }
  | Coll_find of { coll : string; index : string; key : string }
  | Coll_scan of { coll : string; index : string; min : string option; max : string option; limit : int }
  | Coll_mutate of { coll : string; index : string; key : string; mutation : string; arg : string }
  | Coll_size of { coll : string }
  | Metrics  (** the server's and the store's named metrics *)
  | Bye
  | Subscribe of { r_last_id : int; r_chain : string }
      (** switch the connection to publish mode: stream archive frames
          from after the subscriber's chain position. Both fields are
          untrusted hints; the subscriber verifies every frame. *)
  | List_backups  (** archive index: (backup id, archive name) pairs *)
  | Fetch_backup of { name : string }
      (** one archive stream by name — an opaque sealed backup frame the
          client verifies and unseals locally under the device secret *)

type response =
  | Hello_ok of { a_version : int }
  | Ok_unit
  | Ok_oid of int
  | Ok_data of string
  | Ok_found of (int * string) option
  | Ok_list of (int * string) list
  | Ok_root of int option
  | Ok_int of int
  | Ok_metrics of Tdb_chunk.Metrics.t
  | Error_ of { tag : string; msg : string }
  | Rep_frame of { f_name : string; f_stream : string }
      (** one archive stream (sealed, MAC'd backup frame — opaque here) *)
  | Rep_heartbeat of { h_last_id : int; h_seq : int; h_counter : int64 }
      (** publisher position: newest archive id, commit sequence, one-way
          counter — what follower lag is measured against *)

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
