(** Buffer pool for the baseline engine: caches deserialized pages, tracks
    dirty ones, and flushes them to the data file at checkpoints.

    Between checkpoints dirty pages are retained in memory (no-steal at
    checkpoint granularity), so the on-disk image always corresponds to the
    last checkpoint and the write-ahead log carries everything since. *)

type frame = {
  page_id : int;
  mutable node : Page.node;
  mutable dirty : bool;
  mutable lru_tick : int;
}

type t = {
  store : Tdb_platform.Untrusted_store.t;
  frames : (int, frame) Hashtbl.t;
  capacity : int; (* max clean frames kept *)
  mutable tick : int;
  mutable next_page : int; (* persisted in the meta page *)
  mutable meta_tables : (string * int) list; (* table -> root page *)
  mutable pages_written : int;
  mutable page_misses : int;
}

let encode_meta (t : t) : string =
  let module P = Tdb_pickle.Pickle in
  let w = P.writer () in
  P.string w "BDBM";
  P.uint w t.next_page;
  P.list w
    (fun w (name, root) ->
      P.string w name;
      P.uint w root)
    t.meta_tables;
  let body = P.contents w in
  body ^ String.make (Page.page_size - String.length body) '\000'

let decode_meta (s : string) : int * (string * int) list =
  let module P = Tdb_pickle.Pickle in
  let r = P.reader s in
  if not (String.equal (P.read_string r) "BDBM") then failwith "Pager: bad meta page";
  let next_page = P.read_uint r in
  let tables =
    P.read_list r (fun r ->
        let name = P.read_string r in
        let root = P.read_uint r in
        (name, root))
  in
  (next_page, tables)

let create (store : Tdb_platform.Untrusted_store.t) ~(cache_pages : int) : t =
  let t =
    {
      store;
      frames = Hashtbl.create 256;
      capacity = max 16 cache_pages;
      tick = 0;
      next_page = 1;
      meta_tables = [];
      pages_written = 0;
      page_misses = 0;
    }
  in
  if Tdb_platform.Untrusted_store.size store >= Page.page_size then begin
    let meta = Bytes.to_string (Tdb_platform.Untrusted_store.read store ~off:0 ~len:Page.page_size) in
    let next_page, tables = decode_meta meta in
    t.next_page <- next_page;
    t.meta_tables <- tables
  end;
  t

let write_page t (f : frame) =
  Tdb_platform.Untrusted_store.write t.store ~off:(f.page_id * Page.page_size) (Page.serialize f.node);
  f.dirty <- false;
  t.pages_written <- t.pages_written + 1

(* Strict LRU eviction: the least-recently-used frame goes, dirty or not;
   a dirty victim is written back in place first (the "steal" policy of a
   conventional engine — these are the random in-place page writes the
   paper's comparison hinges on). *)
let evict_clean t =
  if Hashtbl.length t.frames > t.capacity then begin
    let all = Hashtbl.fold (fun _ f acc -> f :: acc) t.frames [] in
    let sorted = List.sort (fun a b -> Int.compare a.lru_tick b.lru_tick) all in
    let excess = Hashtbl.length t.frames - t.capacity in
    List.iteri
      (fun i f ->
        if i < excess then begin
          if f.dirty then write_page t f;
          Hashtbl.remove t.frames f.page_id
        end)
      sorted
  end

let read_page t (page_id : int) : Page.node =
  Page.deserialize
    (Bytes.to_string
       (Tdb_platform.Untrusted_store.read t.store ~off:(page_id * Page.page_size) ~len:Page.page_size))

let get t (page_id : int) : frame =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.frames page_id with
  | Some f ->
      f.lru_tick <- t.tick;
      f
  | None ->
      t.page_misses <- t.page_misses + 1;
      let f = { page_id; node = read_page t page_id; dirty = false; lru_tick = t.tick } in
      Hashtbl.replace t.frames page_id f;
      evict_clean t;
      f

let alloc t (node : Page.node) : frame =
  let page_id = t.next_page in
  t.next_page <- t.next_page + 1;
  t.tick <- t.tick + 1;
  let f = { page_id; node; dirty = true; lru_tick = t.tick } in
  Hashtbl.replace t.frames page_id f;
  f

let mark_dirty (f : frame) = f.dirty <- true

(** Flush every dirty page and the meta page, then sync — the data-file
    half of a checkpoint. *)
let flush_all t : unit =
  Hashtbl.iter (fun _ f -> if f.dirty then write_page t f) t.frames;
  Tdb_platform.Untrusted_store.write t.store ~off:0 (encode_meta t);
  Tdb_platform.Untrusted_store.sync t.store;
  evict_clean t

let table_root t (name : string) : int option = List.assoc_opt name t.meta_tables

let set_table_root t (name : string) (root : int) : unit =
  t.meta_tables <- (name, root) :: List.remove_assoc name t.meta_tables

let data_size t = Tdb_platform.Untrusted_store.size t.store
