(** TPC-B workload definition (paper Section 7.1, Figure 9): four tables
    of 100-byte records with 4-byte ids; each transaction updates a random
    Account, Teller and Branch record and inserts a History record. *)

type scale = {
  accounts : int;
  tellers : int;
  branches : int;
  transactions : int;
  measured : int;  (** trailing transactions that count toward the average *)
  cache_bytes : int;  (** both engines get the same cache budget *)
}

val paper_scale : scale
(** Figure 9 exactly: 100 000 / 1 000 / 100, 200 000 txns, 4 MB cache. *)

val default_scale : scale
(** 10× reduction preserving the cache:database ratio. *)

val quick_scale : scale

type txn_input = { account : int; teller : int; branch : int; delta : int }

val gen_txn : Tdb_crypto.Drbg.t -> scale -> txn_input
(** Uniform inputs (account, teller and branch drawn independently). *)

(** {1 Records} *)

val record_size : int

type record = { id : int; mutable balance : int; filler : string }

val make_record : id:int -> balance:int -> record
val pickle_record : Tdb_pickle.Pickle.writer -> record -> unit

val account_cls : record Tdb_objstore.Obj_class.t
val teller_cls : record Tdb_objstore.Obj_class.t
val branch_cls : record Tdb_objstore.Obj_class.t

type history = {
  h_id : int;
  h_account : int;
  h_teller : int;
  h_branch : int;
  h_delta : int;
  h_filler : string;
}

val make_history : h_id:int -> input:txn_input -> history
val history_cls : history Tdb_objstore.Obj_class.t

(** {1 Indexes} *)

val id_ix : unit -> (record, int) Tdb_collection.Indexer.t
(** Account, teller and branch: a unique hash index ["id"]. *)

val hid_ix : unit -> (history, int) Tdb_collection.Indexer.t
(** History: a list index ["id"], append-only, so an insert writes only a
    small head node. *)

(** {1 Flat encodings for the baseline engine} *)

val flat_of_record : record -> string
val record_of_flat : string -> record
val key_of_id : int -> string
