(** Persistent class descriptors and the class registry (paper Section 4.1).

    Applications define a class per persistent type, supplying a unique
    persistent [name] (the paper's class id), a [version], and
    pickle/unpickle functions; the registry lets the store find the right
    unpickler when loading an object, and the per-class type witness makes
    typed opens sound (the paper's RTTI-checked [Ref<T>] construction). *)

exception Duplicate_class of string
exception Unknown_class of string

exception Type_mismatch of { expected : string; actual : string }
(** An object was opened at the wrong class. *)

type 'a t = {
  name : string;  (** the persistent class id, unique across all classes *)
  version : int;
  pickle : Tdb_pickle.Pickle.writer -> 'a -> unit;
  unpickle : version:int -> Tdb_pickle.Pickle.reader -> 'a;
  witness : 'a Witness.t;
}
(** Descriptor for a persistent class of values of type ['a]. Construct
    with {!define} (which registers it), never by hand. *)

val define :
  name:string ->
  ?version:int ->
  pickle:(Tdb_pickle.Pickle.writer -> 'a -> unit) ->
  unpickle:(version:int -> Tdb_pickle.Pickle.reader -> 'a) ->
  unit ->
  'a t
(** Define and register a class. [unpickle] receives the {e stored}
    version, enabling schema evolution by branching on it.
    @raise Duplicate_class if [name] is already registered. *)

val undefine : string -> unit
(** Remove a class from the registry (tests / upgrade flows only). *)

(** {1 Dynamic values} *)

type packed_value = Value : 'a t * 'a -> packed_value
(** A value packaged with its dynamic class. *)

val pickle_value : 'a t -> 'a -> string
(** Serialize with the class tag ([name] + [version]) embedded. *)

val unpickle_value : string -> packed_value
(** Deserialize, dispatching on the embedded class name.
    @raise Unknown_class if the class is not registered.
    @raise Tdb_pickle.Pickle.Error on malformed bytes. *)

val cast : 'a t -> packed_value -> 'a
(** Recover the static type, checking the type witness.
    @raise Type_mismatch when the classes differ. *)
