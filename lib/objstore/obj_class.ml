(** Persistent class descriptors and the class registry.

    Mirrors the paper's Section 4.1: "Subclasses of Object must implement a
    method to pickle an object into a sequence of bytes, and a constructor
    to unpickle ... Each subclass must also provide a class id that is
    unique across all object classes and persists across system restarts.
    The subclass must register its unpickling constructor with the object
    store under its class id."

    A class is defined once per process with {!define}; the [name] is the
    persistent class id. The pickled representation of every object embeds
    its class name and version, so the store can find the right unpickler
    (and applications can evolve representations by bumping [version] and
    branching in [unpickle]). *)

exception Duplicate_class of string
exception Unknown_class of string
exception Type_mismatch of { expected : string; actual : string }

type 'a t = {
  name : string;
  version : int;
  pickle : Tdb_pickle.Pickle.writer -> 'a -> unit;
  unpickle : version:int -> Tdb_pickle.Pickle.reader -> 'a;
  witness : 'a Witness.t;
}

type packed_class = Any : 'a t -> packed_class

let registry : (string, packed_class) Hashtbl.t = Hashtbl.create 32

let define ~(name : string) ?(version = 1) ~(pickle : Tdb_pickle.Pickle.writer -> 'a -> unit)
    ~(unpickle : version:int -> Tdb_pickle.Pickle.reader -> 'a) () : 'a t =
  if Hashtbl.mem registry name then raise (Duplicate_class name);
  let cls = { name; version; pickle; unpickle; witness = Witness.create () } in
  Hashtbl.replace registry name (Any cls);
  cls

(** Remove a class from the registry (tests and dynamic unloading only). *)
let undefine (name : string) : unit = Hashtbl.remove registry name

let find (name : string) : packed_class =
  match Hashtbl.find_opt registry name with Some c -> c | None -> raise (Unknown_class name)

(** A value packaged with its dynamic class. *)
type packed_value = Value : 'a t * 'a -> packed_value

(** Serialize [v] with its class tag. *)
let pickle_value (cls : 'a t) (v : 'a) : string =
  let module P = Tdb_pickle.Pickle in
  let w = P.writer () in
  P.string w cls.name;
  P.uint w cls.version;
  cls.pickle w v;
  P.contents w

(** Deserialize bytes into a dynamically-typed value, dispatching on the
    embedded class name. *)
let unpickle_value (bytes : string) : packed_value =
  let module P = Tdb_pickle.Pickle in
  let r = P.reader bytes in
  let name = P.read_string r in
  let version = P.read_uint r in
  let (Any cls) = find name in
  let v = cls.unpickle ~version r in
  P.expect_end r;
  Value (cls, v)

(** Recover the static type from a packed value, checking the witness — the
    RTTI check behind typed opens. *)
let cast : type a. a t -> packed_value -> a =
 fun expected (Value (cls, v)) ->
  match Witness.eq expected.witness cls.witness with
  | Some Witness.Eq -> v
  | None -> raise (Type_mismatch { expected = expected.name; actual = cls.name })
