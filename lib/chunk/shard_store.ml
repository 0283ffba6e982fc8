(** Aliases of {!Chunk_store} for the perfbench harness; see the
    interface. *)

type t = Chunk_store.t

let one name = function
  | [| x |] -> x
  | _ -> invalid_arg (Printf.sprintf "Shard_store.%s: expected exactly one store and one counter" name)

let create ?config ~secret ~counters stores =
  Chunk_store.create ?config ~secret ~counter:(one "create" counters) (one "create" stores)

let open_existing ?config ~secret ~counters stores =
  Chunk_store.open_existing ?config ~secret ~counter:(one "open_existing" counters) (one "open_existing" stores)

let stats = Chunk_store.stats
let clean = Chunk_store.clean
let checkpoint t = Chunk_store.checkpoint t
let durable_barrier = Chunk_store.durable_barrier
let live_bytes = Chunk_store.live_bytes
let close = Chunk_store.close
