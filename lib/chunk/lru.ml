(** A byte-budgeted LRU map from int keys to values, with pin counts: the
    one structure under both cache tiers (see lru.mli). Entries sit on a
    doubly linked list, most recently used first; a pinned entry that an
    eviction walk reached is parked: off the list until its last unpin,
    so no later walk passes it again. *)

type 'v entry = {
  key : int;
  mutable value : 'v;
  mutable size : int;
  mutable pins : int;
  mutable parked : bool; (* pinned and off the list *)
  mutable prev : 'v entry option; (* towards MRU *)
  mutable next : 'v entry option; (* towards LRU *)
}

type 'v t = {
  table : 'v entry Int_table.t;
  mutable mru : 'v entry option;
  mutable lru : 'v entry option;
  mutable total_size : int;
  mutable budget : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~(budget : int) : 'v t =
  { table = Int_table.create 256; mru = None; lru = None; total_size = 0; budget; hits = 0; misses = 0; evictions = 0 }

let value e = e.value

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.mru <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.lru <- e.prev);
  e.prev <- None;
  e.next <- None

let push_mru t e =
  e.next <- t.mru;
  e.prev <- None;
  (match t.mru with Some m -> m.prev <- Some e | None -> t.lru <- Some e);
  t.mru <- Some e

let drop t e =
  if e.parked then e.parked <- false else unlink t e;
  Int_table.remove t.table e.key;
  t.total_size <- t.total_size - e.size

(* Drop unpinned entries from the LRU end until within budget, parking
   each pinned one met on the way: a walk costs the entries it evicts or
   parks, never the pinned entries an earlier walk passed. *)
let rec evict_until_within t =
  if t.total_size > t.budget then
    match t.lru with
    | None -> ()
    | Some e ->
        if e.pins = 0 then begin
          drop t e;
          t.evictions <- t.evictions + 1
        end
        else begin
          unlink t e;
          e.parked <- true
        end;
        evict_until_within t

let find ?valid t (key : int) : 'v entry option =
  match Int_table.find_opt t.table key with
  | Some e when (match valid with None -> true | Some ok -> ok e.value) ->
      t.hits <- t.hits + 1;
      if not e.parked then begin
        unlink t e;
        push_mru t e
      end;
      Some e
  | Some e ->
      t.misses <- t.misses + 1;
      drop t e;
      None
  | None ->
      t.misses <- t.misses + 1;
      None

(* The entry is off the list while eviction runs, so a put never evicts
   its own entry: an entry larger than the budget stays until the next
   walk. A parked entry stays parked. *)
let put t (key : int) (value : 'v) ~(size : int) : 'v entry =
  let e =
    match Int_table.find_opt t.table key with
    | Some e ->
        if not e.parked then unlink t e;
        t.total_size <- t.total_size - e.size + size;
        e.value <- value;
        e.size <- size;
        e
    | None ->
        let e = { key; value; size; pins = 0; parked = false; prev = None; next = None } in
        Int_table.replace t.table key e;
        t.total_size <- t.total_size + size;
        e
  in
  evict_until_within t;
  if not e.parked then push_mru t e;
  e

let pin e = e.pins <- e.pins + 1

let unpin t e =
  if e.pins <= 0 then invalid_arg "Lru.unpin: not pinned";
  e.pins <- e.pins - 1;
  if e.pins = 0 && e.parked then begin
    e.parked <- false;
    push_mru t e
  end;
  if t.total_size > t.budget then evict_until_within t

let remove t (key : int) : unit = match Int_table.find_opt t.table key with None -> () | Some e -> drop t e

let update_size t e ~(size : int) =
  t.total_size <- t.total_size - e.size + size;
  e.size <- size;
  evict_until_within t

let drop_all t : unit =
  Int_table.iter (fun _ e -> if e.pins > 0 then invalid_arg "Lru.drop_all: pinned entry") t.table;
  Int_table.reset t.table;
  t.mru <- None;
  t.lru <- None;
  t.total_size <- 0

let stats t = (t.hits, t.misses, t.evictions)
let resident t = Int_table.length t.table
let total_size t = t.total_size
let budget t = t.budget

let set_budget t b =
  t.budget <- b;
  evict_until_within t
