(** The anchor: the known location where TDB keeps "the resulting hash
    value along with the current value of the one-way counter ... signed
    with the secret key" (paper Section 3). Two fixed slots written
    alternately by epoch parity, so a torn anchor write leaves the previous
    anchor intact; readers pick the valid slot with the highest epoch. *)

type payload = {
  epoch : int;
  segment_size : int;  (** layout parameters, checked at open *)
  map_fanout : int;
  map_depth : int;
  seq : int;  (** last commit sequence at checkpoint *)
  root : Types.entry option;  (** location-map root; None = empty database *)
  tail_seg : int;
  tail_off : int;
  counter : int64;  (** one-way counter value at checkpoint *)
  next_id : int;
  chain : string;  (** commit-chain MAC value at checkpoint *)
  snapshots : (int * Types.entry option * int) list;  (** id, root, seq *)
}

val encode : payload -> string

val decode : string -> payload
(** Inverse of {!encode}. Also accepts the trailing [(segment, tier)]
    table that stores written with generational cleaning appended, and
    discards it. @raise Tdb_pickle.Pickle.Error on malformed input. *)

val write : Security.t -> Tdb_platform.Untrusted_store.t -> slot_size:int -> payload -> unit
(** Write into the slot selected by the epoch, then sync. *)

val read : Security.t -> Tdb_platform.Untrusted_store.t -> slot_size:int -> payload option
(** The valid slot with the highest epoch; [None] when neither validates. *)
