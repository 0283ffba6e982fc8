(** A byte-budgeted cache map from int keys to values, with pin counts and
    second-chance (CLOCK) replacement: the one structure under both cache
    tiers (see lru.mli). Entries sit on a circular doubly linked ring whose
    hand is the oldest entry; the youngest is the one just behind it. A hit
    only sets the entry's [referenced] bit, so it writes no link. A pinned
    entry that an eviction walk reached is parked: off the ring until its
    last unpin, so no later walk passes it again.

    Links point straight at entries: an entry off the ring links to itself,
    and the hand sits in a box allocated when the first entry joins, so
    linking, evicting, giving a second chance and unparking allocate
    nothing. *)

type 'v entry = {
  key : int;
  mutable value : 'v;
  mutable size : int;
  mutable pins : int;
  mutable parked : bool; (* pinned and off the ring *)
  mutable referenced : bool; (* hit since a walk last passed it *)
  mutable lock : int; (* the caller's word; never read here *)
  mutable prev : 'v entry; (* towards the young end; itself when off the ring *)
  mutable next : 'v entry; (* towards the old end; itself when off the ring *)
}

(* The box outlives the entries in it: when the last one leaves, [hand]
   keeps pointing at it (self-linked) until the next one joins, so a ring
   that empties and fills again allocates no box. *)
type 'v ring = Empty | Ring of { mutable hand : 'v entry (* the oldest entry *); mutable occupied : bool }

type 'v t = {
  table : 'v entry Int_table.t;
  mutable ring : 'v ring;
  mutable total_size : int;
  mutable budget : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~(budget : int) : 'v t =
  { table = Int_table.create 256; ring = Empty; total_size = 0; budget; hits = 0; misses = 0; evictions = 0 }

let value e = e.value
let lock e = e.lock
let set_lock e w = e.lock <- w
let pinned e = e.pins > 0

(* [e] must be on the ring. *)
let unlink t e =
  if e.next == e then (match t.ring with Ring r -> r.occupied <- false | Empty -> ())
  else begin
    e.prev.next <- e.next;
    e.next.prev <- e.prev;
    (match t.ring with Ring r when r.hand == e -> r.hand <- e.next | Ring _ | Empty -> ());
    e.prev <- e;
    e.next <- e
  end

(* Join the ring at the young end, just behind the hand. *)
let push_young t e =
  match t.ring with
  | Ring r when r.occupied ->
      let h = r.hand in
      e.next <- h;
      e.prev <- h.prev;
      h.prev.next <- e;
      h.prev <- e
  | Ring r ->
      e.prev <- e;
      e.next <- e;
      r.hand <- e;
      r.occupied <- true
  | Empty ->
      e.prev <- e;
      e.next <- e;
      t.ring <- Ring { hand = e; occupied = true }

let drop t e =
  if e.parked then e.parked <- false else unlink t e;
  Int_table.remove t.table e.key;
  t.total_size <- t.total_size - e.size

(* Walk from the hand until within budget: park each pinned entry, give
   each referenced one a second chance (clear its bit and move the hand
   past it, which makes it the youngest), and drop the rest. A walk
   passes a referenced entry at most once per hit and a pinned entry at
   most once per pin period. *)
let rec evict_until_within t =
  if t.total_size > t.budget then
    match t.ring with
    | Ring r when r.occupied ->
        let e = r.hand in
        if e.pins > 0 then begin
          unlink t e;
          e.parked <- true
        end
        else if e.referenced then begin
          e.referenced <- false;
          r.hand <- e.next
        end
        else begin
          drop t e;
          t.evictions <- t.evictions + 1
        end;
        evict_until_within t
    | Ring _ | Empty -> ()

let find ?valid t (key : int) : 'v entry option =
  match Int_table.find_opt t.table key with
  | Some e as hit when (match valid with None -> true | Some ok -> ok e.value) ->
      t.hits <- t.hits + 1;
      e.referenced <- true;
      hit
  | Some e ->
      t.misses <- t.misses + 1;
      drop t e;
      None
  | None ->
      t.misses <- t.misses + 1;
      None

(* The entry is off the ring while eviction runs, so a put never evicts
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
        (* links are set when it joins the ring; until then any entry will do *)
        let e =
          match t.ring with
          | Ring r ->
              { key; value; size; pins = 0; parked = false; referenced = false; lock = 0; prev = r.hand; next = r.hand }
          | Empty ->
              let rec e =
                { key; value; size; pins = 0; parked = false; referenced = false; lock = 0; prev = e; next = e }
              in
              e
        in
        Int_table.replace t.table key e;
        t.total_size <- t.total_size + size;
        e
  in
  evict_until_within t;
  if not e.parked then push_young t e;
  e

let pin e = e.pins <- e.pins + 1

let unpin t e =
  if e.pins <= 0 then invalid_arg "Lru.unpin: not pinned";
  e.pins <- e.pins - 1;
  if e.pins = 0 && e.parked then begin
    e.parked <- false;
    push_young t e
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
  t.ring <- Empty;
  t.total_size <- 0

let mem t (key : int) : bool = Int_table.mem t.table key
let fold f t acc = Int_table.fold (fun _ e acc -> f e acc) t.table acc
let stats t = (t.hits, t.misses, t.evictions)
let resident t = Int_table.length t.table
let total_size t = t.total_size
let budget t = t.budget

let set_budget t b =
  t.budget <- b;
  evict_until_within t
