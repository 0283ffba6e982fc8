(** The hierarchical location map with the Merkle hash tree embedded in it
    (paper Section 3.2.1).

    The map is a radix tree over chunk ids with a fixed fanout and depth.
    Leaf slots hold the location entries of data chunks; interior slots hold
    the location entries of child map nodes. Every entry carries the one-way
    hash of the bytes it points at, so the tree doubles as a Merkle tree:
    validating a chunk read validates exactly one root-to-leaf path, and the
    root entry (kept in the MAC-protected anchor) authenticates the whole
    database.

    Nodes are loaded lazily through a [fetch] callback supplied by the chunk
    store (which reads the untrusted store, checks the recorded hash and
    decrypts). Dirty nodes live only in memory until the next checkpoint
    writes them out bottom-up — the paper's "modified portions of the
    location map ... written opportunistically at checkpoints". Once
    more leaves are loaded than the store's bound, {!trim} unloads the
    clean ones no lookup reached since the previous trim, so a store that
    keeps adding chunks does not keep every entry in memory. *)

open Types

(* Every loaded chunk keeps its slot in memory, so a filled leaf slot is
   one block: the entry's fields inline, with no option or entry box. *)
type kid =
  | Empty
  | Entry of { seg : int; off : int; len : int; hash : string; version : int }
      (* level 0: a data chunk's location *)
  | Node of node (* level > 0: loaded child node *)
  | Unloaded of entry (* level > 0: child node still on disk *)

and node = {
  level : int; (* 0 = leaf *)
  base : int; (* first chunk id covered by this node *)
  kids : kid array;
  mutable disk : entry option; (* the on-disk copy the current anchor reaches *)
  mutable dirty : bool; (* changed since [disk]; a dirty node's ancestors are dirty *)
  mutable used : bool; (* leaf: a lookup reached it since the last {!trim} passed it *)
}

type t = { fanout : int; depth : int; mutable root : node }

type fetch = what:(unit -> string) -> entry -> string
(** [fetch ~what e] returns the validated, decrypted payload stored at [e].
    [what ()] names the record in a tamper message; it runs only on failure.
    @raise Tamper_detected on validation failure. *)

let entry_kid (e : entry) : kid = Entry { seg = e.seg; off = e.off; len = e.len; hash = e.hash; version = e.version }

(** The data entry in a leaf slot. *)
let leaf_entry (k : kid) : entry option =
  match k with
  | Empty -> None
  | Entry { seg; off; len; hash; version } -> Some { seg; off; len; hash; version }
  | Node _ | Unloaded _ -> tamper "node entry at leaf map level"

let fresh_node ~fanout ~level ~base = { level; base; kids = Array.make fanout Empty; disk = None; dirty = true; used = false }

let create ~fanout ~depth =
  { fanout; depth; root = fresh_node ~fanout ~level:(depth - 1) ~base:0 }

let capacity t =
  let rec pow b = function 0 -> 1 | n -> b * pow b (n - 1) in
  pow t.fanout t.depth

let span t level =
  let rec pow b = function 0 -> 1 | n -> b * pow b (n - 1) in
  pow t.fanout (level + 1)

(* ------------------------------------------------------------------ *)
(* Node (de)serialization                                              *)
(* ------------------------------------------------------------------ *)

let write_entry w (e : entry) =
  Tdb_pickle.Pickle.uint w e.seg;
  Tdb_pickle.Pickle.uint w e.off;
  Tdb_pickle.Pickle.uint w e.len;
  Tdb_pickle.Pickle.string w e.hash;
  Tdb_pickle.Pickle.uint w e.version

let read_entry r =
  let seg = Tdb_pickle.Pickle.read_uint r in
  let off = Tdb_pickle.Pickle.read_uint r in
  let len = Tdb_pickle.Pickle.read_uint r in
  let hash = Tdb_pickle.Pickle.read_string r in
  let version = Tdb_pickle.Pickle.read_uint r in
  { seg; off; len; hash; version }

(** Serialize a node for storage. Only slots holding entries are written
    ([Node]/[Unloaded] kids are represented by their entries; the caller
    must checkpoint children first so every loaded child is clean). *)
let node_payload (n : node) : string =
  let w = Tdb_pickle.Pickle.writer () in
  Tdb_pickle.Pickle.uint w n.level;
  Tdb_pickle.Pickle.uint w n.base;
  let slots = ref [] in
  Array.iteri
    (fun i kid ->
      match kid with
      | Empty -> ()
      | Entry { seg; off; len; hash; version } -> slots := (i, { seg; off; len; hash; version }) :: !slots
      | Unloaded e -> slots := (i, e) :: !slots
      | Node child -> (
          match child.disk with
          | Some e -> slots := (i, e) :: !slots
          | None -> invalid_arg "Location_map.node_payload: dirty child"))
    n.kids;
  Tdb_pickle.Pickle.list w
    (fun w (i, e) ->
      Tdb_pickle.Pickle.uint w i;
      write_entry w e)
    (List.rev !slots);
  Tdb_pickle.Pickle.contents w

let node_of_payload ~fanout (payload : string) : node =
  let r = Tdb_pickle.Pickle.reader payload in
  let level = Tdb_pickle.Pickle.read_uint r in
  let base = Tdb_pickle.Pickle.read_uint r in
  let n = { (fresh_node ~fanout ~level ~base) with dirty = false } in
  let slots =
    Tdb_pickle.Pickle.read_list r (fun r ->
        let i = Tdb_pickle.Pickle.read_uint r in
        let e = read_entry r in
        (i, e))
  in
  Tdb_pickle.Pickle.expect_end r;
  List.iter
    (fun (i, e) ->
      if i >= fanout then tamper "map node slot out of range";
      n.kids.(i) <- (if level = 0 then entry_kid e else Unloaded e))
    slots;
  n

(* ------------------------------------------------------------------ *)
(* Path navigation                                                     *)
(* ------------------------------------------------------------------ *)

let slot_of t (cid : chunk_id) (level : int) =
  let rec pow b = function 0 -> 1 | n -> b * pow b (n - 1) in
  cid / pow t.fanout level mod t.fanout

let check_cid t cid =
  if cid < 0 || cid >= capacity t then invalid_arg (Printf.sprintf "chunk id %d out of map range" cid)

let load_child t (fetch : fetch) (parent : node) (i : int) : node option =
  match parent.kids.(i) with
  | Empty -> None
  | Node n -> Some n
  | Unloaded e ->
      let payload = fetch ~what:(fun () -> Printf.sprintf "map node (level %d)" (parent.level - 1)) e in
      let n = node_of_payload ~fanout:t.fanout payload in
      if n.level <> parent.level - 1 then tamper "map node level mismatch";
      n.disk <- Some e;
      parent.kids.(i) <- Node n;
      Some n
  | Entry _ -> tamper "data entry at interior map level"

(** Descend to the leaf covering [cid]. [create_path] materializes missing
    interior nodes (for writes). *)
let rec descend t fetch (n : node) ~create_path (cid : chunk_id) : node option =
  if n.level = 0 then begin
    n.used <- true;
    Some n
  end
  else begin
    let i = slot_of t cid n.level in
    match load_child t fetch n i with
    | Some child -> descend t fetch child ~create_path cid
    | None ->
        if not create_path then None
        else begin
          let child_span = span t (n.level - 1) in
          let child = fresh_node ~fanout:t.fanout ~level:(n.level - 1) ~base:(n.base + (i * child_span)) in
          n.kids.(i) <- Node child;
          descend t fetch child ~create_path cid
        end
  end

(** Locate the in-memory node covering [(level, base)], loading the path if
    necessary; used by the cleaner to test map-node liveness. *)
let find_node t (fetch : fetch) ~(level : int) ~(base : int) : node option =
  let rec go (n : node) =
    if Int.equal n.level level then if Int.equal n.base base then Some n else None
    else if n.level < level then None
    else
      match load_child t fetch n (slot_of t base n.level) with
      | Some child -> go child
      | None -> None
  in
  if level >= t.depth then None else go t.root

(** The root's on-disk entry; [None] if the tree is dirty or empty. *)
let root_entry t : entry option = if t.root.dirty then None else t.root.disk

let find t (fetch : fetch) (cid : chunk_id) : entry option =
  check_cid t cid;
  match descend t fetch t.root ~create_path:false cid with
  | None -> None
  | Some leaf -> leaf_entry leaf.kids.(slot_of t cid 0)

(** Mark every node on the path from the root down to the node at [level]
    covering [cid] dirty, so the next checkpoint rewrites it and its
    ancestors. Their on-disk copies stay put until then. *)
let dirty_path t fetch ~(level : int) (cid : chunk_id) : unit =
  let rec go n =
    n.dirty <- true;
    if n.level > level then
      match load_child t fetch n (slot_of t cid n.level) with Some child -> go child | None -> ()
  in
  go t.root

(** [set t fetch cid e] installs [e] and returns the data entry it
    replaced. *)
let set t (fetch : fetch) (cid : chunk_id) (e : entry) : entry option =
  check_cid t cid;
  dirty_path t fetch ~level:0 cid;
  match descend t fetch t.root ~create_path:true cid with
  | None -> assert false
  | Some leaf ->
      let i = slot_of t cid 0 in
      let old = leaf_entry leaf.kids.(i) in
      leaf.kids.(i) <- entry_kid e;
      old

let remove t (fetch : fetch) (cid : chunk_id) : entry option =
  check_cid t cid;
  match descend t fetch t.root ~create_path:false cid with
  | None -> None
  | Some leaf -> (
      let i = slot_of t cid 0 in
      match leaf_entry leaf.kids.(i) with
      | Some o ->
          dirty_path t fetch ~level:0 cid;
          leaf.kids.(i) <- Empty;
          Some o
      | None -> None )

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

(** Write out every dirty node bottom-up. [write_node] appends a map-node
    record to the log and returns its new location entry. Each on-disk copy
    a rewritten or emptied node supersedes goes to [retire]; the caller may
    free it only once the new root is anchored. Returns the root's entry
    (None if the tree is completely empty). *)
let checkpoint t ~(write_node : string -> entry) ~(retire : entry -> unit) : entry option =
  let rec flush (n : node) : entry option =
    if n.dirty then begin
      (* flush dirty children first so our serialized slots are fresh *)
      Array.iteri
        (fun i kid ->
          match kid with
          | Node c when c.dirty -> if Option.is_none (flush c) then n.kids.(i) <- Empty
          | _ -> ())
        n.kids;
      Option.iter retire n.disk;
      n.dirty <- false;
      n.disk <- (if Array.for_all (function Empty -> true | _ -> false) n.kids then None else Some (write_node (node_payload n)))
    end;
    n.disk
  in
  flush t.root

(* ------------------------------------------------------------------ *)
(* Residency                                                           *)
(* ------------------------------------------------------------------ *)

let resident_leaves t : int =
  let rec go (n : node) =
    if n.level = 0 then 1 else Array.fold_left (fun acc kid -> match kid with Node c -> acc + go c | _ -> acc) 0 n.kids
  in
  go t.root

(** With more than [keep] leaves in memory, unload every clean leaf no
    lookup reached since the previous trim (its parent slot goes back to
    [Unloaded] of the leaf's on-disk entry, which the next lookup fetches
    and checks again) and clear the mark of the others. A dirty leaf
    stays: its [disk] copy is stale. Interior nodes stay. *)
let trim t ~(keep : int) : unit =
  let rec go (n : node) =
    if n.level = 1 then
      Array.iteri
        (fun i kid ->
          match kid with
          | Node ({ dirty = false; disk = Some e; _ } as leaf) ->
              if leaf.used then leaf.used <- false else n.kids.(i) <- Unloaded e
          | _ -> ())
        n.kids
    else Array.iter (function Node c -> go c | _ -> ()) n.kids
  in
  if resident_leaves t > keep then go t.root

(** Number of dirty nodes, walking only those — used to pre-reserve log
    space before a checkpoint. *)
let count_dirty t : int =
  let rec go (n : node) =
    if not n.dirty then 0
    else
      Array.fold_left (fun acc kid -> match kid with Node c -> acc + go c | _ -> acc) 1 n.kids
  in
  go t.root

(* ------------------------------------------------------------------ *)
(* Whole-tree walks (usage rebuild, snapshots, backups)                *)
(* ------------------------------------------------------------------ *)

(** Iterate over the *current* in-memory tree: [data] for every data chunk
    entry, [node] for every node's on-disk copy (dirty nodes included: the
    anchor still reaches it). Loads everything. *)
let iter t (fetch : fetch) ~(data : chunk_id -> entry -> unit) ~(node : entry -> unit) : unit =
  let rec go (n : node) =
    (match n.disk with Some e -> node e | None -> ());
    Array.iteri
      (fun i kid ->
        match kid with
        | Empty -> ()
        | Entry { seg; off; len; hash; version } -> data (n.base + i) { seg; off; len; hash; version }
        | Node _ | Unloaded _ -> (
            match load_child t fetch n i with Some child -> go child | None -> () ))
      n.kids
  in
  go t.root

(** Walk a tree straight off the disk, given its root entry — used for
    snapshot reads, which must not disturb (or depend on) the live map. *)
let walk_tree ~fanout (fetch : fetch) ~(root : entry) ~(data : chunk_id -> entry -> unit)
    ~(node : entry -> unit) : unit =
  let rec go (e : entry) =
    node e;
    let n = node_of_payload ~fanout (fetch ~what:(fun () -> "snapshot map node") e) in
    Array.iteri
      (fun i kid ->
        match kid with
        | Empty -> ()
        | Entry { seg; off; len; hash; version } -> data (n.base + i) { seg; off; len; hash; version }
        | Unloaded ce -> go ce
        | Node _ -> assert false)
      n.kids
  in
  go root

(** Structural diff of two on-disk trees, pruning identical subtrees by
    hash — the basis of incremental backups (paper Section 3.2.1).
    [changed] fires for ids added or modified in [new_root]; [removed] for
    ids present under [old_root] only. *)
let diff_trees ~fanout (fetch : fetch) ~(old_root : entry option) ~(new_root : entry option)
    ~(changed : chunk_id -> entry -> unit) ~(removed : chunk_id -> unit) : unit =
  let load e = node_of_payload ~fanout (fetch ~what:(fun () -> "diff map node") e) in
  let entries_equal (a : entry) (b : entry) = entry_equal a b in
  let rec go (old_e : entry option) (new_e : entry option) =
    match (old_e, new_e) with
    | None, None -> ()
    | None, Some root -> walk_tree ~fanout fetch ~root ~data:changed ~node:ignore
    | Some root, None -> walk_tree ~fanout fetch ~root ~data:(fun cid _ -> removed cid) ~node:ignore
    | Some oe, Some ne ->
        if entries_equal oe ne then ()
        else begin
          let on = load oe and nn = load ne in
          if (not (Int.equal on.level nn.level)) || not (Int.equal on.base nn.base) then tamper "diff: incompatible map nodes";
          for i = 0 to fanout - 1 do
            match (on.kids.(i), nn.kids.(i)) with
            | ((Entry _ | Empty) as a), ((Entry _ | Empty) as b) -> (
                match (leaf_entry a, leaf_entry b) with
                | Some a, Some b -> if not (entries_equal a b) then changed (nn.base + i) b
                | Some _, None -> removed (on.base + i)
                | None, Some b -> changed (nn.base + i) b
                | None, None -> ())
            | Unloaded a, Unloaded b -> go (Some a) (Some b)
            | Unloaded a, Empty -> go (Some a) None
            | Empty, Unloaded b -> go None (Some b)
            | _ -> tamper "diff: mixed node kinds"
          done
        end
  in
  go old_root new_root
