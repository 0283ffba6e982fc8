(** The archival store (paper Figure 1): a stream-based sink for backups —
    e.g. staged locally and opportunistically migrated to a server. Like
    the untrusted store, its contents are attacker-controlled; the backup
    store validates everything it reads back. *)

type t = {
  put : name:string -> string -> unit;
  get : name:string -> string option;
  list : unit -> string list;  (** sorted *)
  delete : name:string -> unit;
}

val put : t -> name:string -> string -> unit
val get : t -> name:string -> string option
val list : t -> string list
val delete : t -> name:string -> unit

module Mem : sig
  type handle

  val corrupt : handle -> name:string -> pos:int -> mask:int -> unit
  (** Attacker: flip bits inside a stored backup stream. *)
end

val open_mem : unit -> Mem.handle * t

val open_dir : string -> t
(** One file per backup stream under the directory. Opening writes
    nothing: the first {!put} makes the directory, and until then the
    archive lists empty.
    @raise Invalid_argument on names containing path separators. *)
