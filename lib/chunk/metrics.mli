(** Named metric values: the one shape every counter and gauge takes on
    its way from the store to an operator.

    {!Chunk_store.metrics} names the store's metrics, the server prepends
    its own, the wire carries the list as (name, tagged value) pairs, and
    [tdb_cli status] / [remote-status] print it through {!print}. Adding
    a metric adds one list entry; the wire codec and the printers do not
    change. Names are dotted by owner
    ([store.commits], [cleaner.live_segments], [object_cache.hits]). *)

type value = Int of int | Float of float | Text of string
type t = (string * value) list

val find : t -> string -> value option
(** The value of the first entry named [name]. *)

val print : t -> unit
(** One line per entry on stdout, the name padded to a fixed column so
    that a name prints the same line in every list it appears in. *)
