(** TPC-B workload definition (paper Section 7.1, Figure 9).

    "The benchmark schema consists of four collections: Account, Teller,
    Branch and History. Objects in all four collections are 100 bytes long
    and contain 4-byte unique ids. A transaction reads and updates a random
    object from each of the Account, Branch and Teller collections and
    inserts a new object into the History collection."

    Scales: [paper_scale] reproduces Figure 9 exactly (100 000 accounts,
    200 000 transactions); [default_scale] is a 10× reduction so the full
    harness runs in seconds while preserving the cache-to-database ratio
    that drives the results (the cache is scaled with the data). *)

type scale = {
  accounts : int;
  tellers : int;
  branches : int;
  transactions : int; (* total txns to run *)
  measured : int; (* how many trailing txns count toward the average *)
  cache_bytes : int; (* both engines get the same cache budget *)
}

let paper_scale =
  { accounts = 100_000; tellers = 1_000; branches = 100; transactions = 200_000; measured = 100_000;
    cache_bytes = 4 * 1024 * 1024 }

let default_scale =
  { accounts = 10_000; tellers = 100; branches = 10; transactions = 20_000; measured = 10_000;
    cache_bytes = 400 * 1024 }

let quick_scale =
  { accounts = 1_000; tellers = 10; branches = 2; transactions = 2_000; measured = 1_000;
    cache_bytes = 64 * 1024 }

(** One TPC-B transaction's inputs. *)
type txn_input = { account : int; teller : int; branch : int; delta : int }

let gen_txn (rng : Tdb_crypto.Drbg.t) (s : scale) : txn_input =
  {
    account = Tdb_crypto.Drbg.int rng s.accounts;
    teller = Tdb_crypto.Drbg.int rng s.tellers;
    branch = Tdb_crypto.Drbg.int rng s.branches;
    delta = Tdb_crypto.Drbg.int rng 1_999_999 - 999_999;
  }

(* ------------------------------------------------------------------ *)
(* Records: 100 bytes, 4-byte ids                                      *)
(* ------------------------------------------------------------------ *)

let record_size = 100

type record = { id : int; mutable balance : int; filler : string }

(** Pad so one pickled record (id 4 B fixed + balance 8 B fixed + filler
    with 1-byte length prefix) is exactly [record_size] bytes. *)
let filler_len = record_size - 4 - 8 - 1

let make_record ~id ~balance = { id; balance; filler = String.make filler_len '\x2a' }

let pickle_record w (r : record) =
  let module P = Tdb_pickle.Pickle in
  P.int32_fixed w r.id;
  P.int64 w (Int64.of_int r.balance);
  P.string w r.filler

let unpickle_record ~version:_ r =
  let module P = Tdb_pickle.Pickle in
  let id = P.read_int32_fixed r in
  let balance = Int64.to_int (P.read_int64 r) in
  let filler = P.read_string r in
  { id; balance; filler }

(* One class per table, as the paper has one collection schema class each. *)
let account_cls : record Tdb_objstore.Obj_class.t =
  Tdb_objstore.Obj_class.define ~name:"tpcb.account" ~pickle:pickle_record ~unpickle:unpickle_record ()

let teller_cls : record Tdb_objstore.Obj_class.t =
  Tdb_objstore.Obj_class.define ~name:"tpcb.teller" ~pickle:pickle_record ~unpickle:unpickle_record ()

let branch_cls : record Tdb_objstore.Obj_class.t =
  Tdb_objstore.Obj_class.define ~name:"tpcb.branch" ~pickle:pickle_record ~unpickle:unpickle_record ()

(* History record: 100 bytes incl. the ids it references. *)
type history = { h_id : int; h_account : int; h_teller : int; h_branch : int; h_delta : int; h_filler : string }

let history_filler_len = record_size - (4 * 4) - 8 - 1

let make_history ~h_id ~(input : txn_input) =
  {
    h_id;
    h_account = input.account;
    h_teller = input.teller;
    h_branch = input.branch;
    h_delta = input.delta;
    h_filler = String.make history_filler_len '\x2a';
  }

let history_cls : history Tdb_objstore.Obj_class.t =
  let module P = Tdb_pickle.Pickle in
  Tdb_objstore.Obj_class.define ~name:"tpcb.history"
    ~pickle:(fun w h ->
      P.int32_fixed w h.h_id;
      P.int32_fixed w h.h_account;
      P.int32_fixed w h.h_teller;
      P.int32_fixed w h.h_branch;
      P.int64 w (Int64.of_int h.h_delta);
      P.string w h.h_filler)
    ~unpickle:(fun ~version:_ r ->
      let h_id = P.read_int32_fixed r in
      let h_account = P.read_int32_fixed r in
      let h_teller = P.read_int32_fixed r in
      let h_branch = P.read_int32_fixed r in
      let h_delta = Int64.to_int (P.read_int64 r) in
      let h_filler = P.read_string r in
      { h_id; h_account; h_teller; h_branch; h_delta; h_filler })
    ()

(* --- flat 100-byte encoding for the baseline engine (untyped values) --- *)

let flat_of_record (r : record) : string =
  let b = Bytes.make record_size '\x2a' in
  Bytes.set b 0 (Char.chr ((r.id lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((r.id lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((r.id lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (r.id land 0xff));
  for i = 0 to 7 do
    Bytes.set b (4 + i) (Char.chr ((r.balance asr (8 * (7 - i))) land 0xff))
  done;
  Bytes.to_string b

let record_of_flat (s : string) : record =
  let id =
    (Char.code s.[0] lsl 24) lor (Char.code s.[1] lsl 16) lor (Char.code s.[2] lsl 8) lor Char.code s.[3]
  in
  let balance = ref 0L in
  for i = 0 to 7 do
    balance := Int64.logor (Int64.shift_left !balance 8) (Int64.of_int (Char.code s.[4 + i]))
  done;
  { id; balance = Int64.to_int !balance; filler = String.sub s 12 (record_size - 12) }

let key_of_id (id : int) : string = Printf.sprintf "%010d" id
