(** Persistent index structures (paper Section 5.2.4): B-tree, dynamic hash
    table (Larson's linear hashing) and list.

    Index meta-objects — anchors, B-tree nodes, hash buckets, list nodes —
    are ordinary objects in the object store, so they are cached, locked
    (two-phase, like any other object) and committed transactionally for
    free. All storage management of the collection store is delegated here:
    indexes map canonical key bytes to object ids.

    Every index is reached through an *anchor* object whose oid is stored
    in the collection; the anchor survives root splits and bucket
    directory growth, so the collection's metadata never changes during
    updates. *)

open Tdb_objstore

type oid = Object_store.oid

exception Duplicate_key of { index : string; key : string }
exception Unsupported_query of string

let max_leaf = 32 (* max keys per B-tree node *)
let bucket_split_load = 4 (* linear hashing: avg entries per bucket before split *)
let max_list_node = 8 (* max pairs per list node; the head is rewritten whole on every insert *)

(* ------------------------------------------------------------------ *)
(* Persistent classes                                                  *)
(* ------------------------------------------------------------------ *)

type anchor = {
  mutable a_root : oid option; (* btree root / list head *)
  mutable a_count : int; (* entries in the index *)
  mutable a_buckets : oid list; (* hash: bucket directory (reversed-append order) *)
  mutable a_level : int; (* hash: current level *)
  mutable a_next : int; (* hash: next bucket to split *)
}

let anchor_cls : anchor Obj_class.t =
  let module P = Tdb_pickle.Pickle in
  Obj_class.define ~name:"tdb.index.anchor"
    ~pickle:(fun w a ->
      P.option w (fun w v -> P.uint w v) a.a_root;
      P.uint w a.a_count;
      P.list w (fun w v -> P.uint w v) a.a_buckets;
      P.uint w a.a_level;
      P.uint w a.a_next)
    ~unpickle:(fun ~version:_ r ->
      let a_root = P.read_option r P.read_uint in
      let a_count = P.read_uint r in
      let a_buckets = P.read_list r P.read_uint in
      let a_level = P.read_uint r in
      let a_next = P.read_uint r in
      { a_root; a_count; a_buckets; a_level; a_next })
    ()

type btree_node = {
  mutable leaf : bool;
  mutable keys : string list; (* canonical key bytes, sorted *)
  mutable vals : oid list list; (* leaf: oids per key *)
  mutable kids : oid list; (* internal: |kids| = |keys| + 1 *)
  mutable next : oid option; (* leaf chain for range scans *)
}

let btree_cls : btree_node Obj_class.t =
  let module P = Tdb_pickle.Pickle in
  Obj_class.define ~name:"tdb.index.btree_node"
    ~pickle:(fun w n ->
      P.bool w n.leaf;
      P.list w P.string n.keys;
      P.list w (fun w l -> P.list w (fun w v -> P.uint w v) l) n.vals;
      P.list w (fun w v -> P.uint w v) n.kids;
      P.option w (fun w v -> P.uint w v) n.next)
    ~unpickle:(fun ~version:_ r ->
      let leaf = P.read_bool r in
      let keys = P.read_list r P.read_string in
      let vals = P.read_list r (fun r -> P.read_list r P.read_uint) in
      let kids = P.read_list r P.read_uint in
      let next = P.read_option r P.read_uint in
      { leaf; keys; vals; kids; next })
    ()

type bucket = { mutable pairs : (string * oid) list }

(** Hash-directory segment: the bucket directory is chunked so the anchor
    stays small no matter how many buckets the table grows (a flat
    directory would make the anchor a multi-kilobyte object rewritten on
    every split). *)
type dir_seg = { mutable d_slots : oid list (* bucket oids, newest last *) }

let dir_seg_cap = 256

let bucket_cls : bucket Obj_class.t =
  let module P = Tdb_pickle.Pickle in
  Obj_class.define ~name:"tdb.index.bucket"
    ~pickle:(fun w b ->
      P.list w
        (fun w (k, o) ->
          P.string w k;
          P.uint w o)
        b.pairs)
    ~unpickle:(fun ~version:_ r ->
      let pairs =
        P.read_list r (fun r ->
            let k = P.read_string r in
            let o = P.read_uint r in
            (k, o))
      in
      { pairs })
    ()

let dir_seg_cls : dir_seg Obj_class.t =
  let module P = Tdb_pickle.Pickle in
  Obj_class.define ~name:"tdb.index.dir_seg"
    ~pickle:(fun w d -> P.list w (fun w o -> P.uint w o) d.d_slots)
    ~unpickle:(fun ~version:_ r -> { d_slots = P.read_list r P.read_uint })
    ()

(** A list node holds pairs newest first. The head never moves: it is the
    node the anchor's [a_root] names from creation on, and it carries the
    entry count of the whole list ([l_count]), so an insert writes the head
    and nothing else. Spilled nodes, and heads written by version 1 of the
    class, have [l_count = None]; the count then comes from the anchor. *)
type list_node = {
  mutable pairs : (string * oid) list;
  mutable lnext : oid option;
  mutable l_count : int option;
}

let list_cls : list_node Obj_class.t =
  let module P = Tdb_pickle.Pickle in
  Obj_class.define ~name:"tdb.index.list_node" ~version:2
    ~pickle:(fun w n ->
      P.list w
        (fun w (k, o) ->
          P.string w k;
          P.uint w o)
        n.pairs;
      P.option w (fun w v -> P.uint w v) n.lnext;
      P.option w (fun w v -> P.uint w v) n.l_count)
    ~unpickle:(fun ~version r ->
      let pairs =
        P.read_list r (fun r ->
            let k = P.read_string r in
            let o = P.read_uint r in
            (k, o))
      in
      let lnext = P.read_option r P.read_uint in
      let l_count = if version >= 2 then P.read_option r P.read_uint else None in
      { pairs; lnext; l_count })
    ()

(* ------------------------------------------------------------------ *)
(* Common plumbing                                                     *)
(* ------------------------------------------------------------------ *)

type ops = {
  index_name : string;
  cmp : string -> string -> int; (* canonical-bytes comparator *)
  unique : bool;
  impl : Indexer.impl;
}

let ops_of (type k) ~(index_name : string) ~(unique : bool) ~(impl : Indexer.impl) (key : k Gkey.t) : ops =
  { index_name; cmp = Gkey.bytes_compare key; unique; impl }

let ro x cls oid = Object_store.deref (Object_store.open_readonly x cls oid)
let rw x cls oid = Object_store.deref (Object_store.open_writable x cls oid)

(** Create a fresh, empty anchor for an index of the given implementation;
    returns its oid. *)
let create_anchor (x : Object_store.txn) (impl : Indexer.impl) : oid =
  match impl with
  | Indexer.Btree ->
      Object_store.insert x anchor_cls { a_root = None; a_count = 0; a_buckets = []; a_level = 0; a_next = 0 }
  | Indexer.List ->
      let head = Object_store.insert x list_cls { pairs = []; lnext = None; l_count = Some 0 } in
      Object_store.insert x anchor_cls { a_root = Some head; a_count = 0; a_buckets = []; a_level = 0; a_next = 0 }
  | Indexer.Hash ->
      let nbuckets = 4 in
      let buckets = List.init nbuckets (fun _ -> Object_store.insert x bucket_cls { pairs = [] }) in
      let seg = Object_store.insert x dir_seg_cls { d_slots = buckets } in
      Object_store.insert x anchor_cls { a_root = None; a_count = 0; a_buckets = [ seg ]; a_level = 2; a_next = 0 }

(* ------------------------------------------------------------------ *)
(* B-tree                                                              *)
(* ------------------------------------------------------------------ *)

(** A structurally impossible index shape: a persisted node contradicts
    its invariants (arity, split results). Distinct from [Tamper_detected]
    — the chunk layer has already validated the bytes. *)
let corrupt what = failwith ("Index: corrupt index structure: " ^ what)

let nth_or l i what = match List.nth_opt l i with Some v -> v | None -> corrupt what

module Btree = struct
  (* Position of the child to descend into for [key]:
     key < keys[0] -> kid 0; keys[i] <= key < keys[i+1] -> kid i+1. *)
  let child_slot cmp keys key =
    let rec go i = function [] -> i | k :: rest -> if cmp key k < 0 then i else go (i + 1) rest in
    go 0 keys

  let nth_kid kids i = nth_or kids i "kid slot out of range"

  let split_list l at =
    let rec go acc i = function
      | rest when Int.equal i at -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> go (x :: acc) (i + 1) rest
    in
    go [] 0 l

  (** Insert into the subtree at [noid]; returns [Some (sep, right_oid)]
      when the node split. *)
  let rec insert_rec x ops noid key oid : (string * oid) option =
    let n = rw x btree_cls noid in
    if n.leaf then begin
      (* find position / existing key *)
      let rec place ks vs =
        match (ks, vs) with
        | [], [] -> ([ key ], [ [ oid ] ])
        | k :: krest, v :: vrest ->
            let c = ops.cmp key k in
            if c = 0 then
              if ops.unique then raise (Duplicate_key { index = ops.index_name; key })
              else (k :: krest, (oid :: v) :: vrest)
            else if c < 0 then (key :: k :: krest, [ oid ] :: v :: vrest)
            else begin
              let ks', vs' = place krest vrest in
              (k :: ks', v :: vs')
            end
        | _ -> assert false
      in
      let ks, vs = place n.keys n.vals in
      n.keys <- ks;
      n.vals <- vs;
      if List.length n.keys <= max_leaf then None
      else begin
        let at = List.length n.keys / 2 in
        let lk, rk = split_list n.keys at in
        let lv, rv = split_list n.vals at in
        match rk with
        | [] -> corrupt "leaf split produced no right keys"
        | sep :: _ ->
            let right =
              Object_store.insert x btree_cls { leaf = true; keys = rk; vals = rv; kids = []; next = n.next }
            in
            n.keys <- lk;
            n.vals <- lv;
            n.next <- Some right;
            Some (sep, right)
      end
    end
    else begin
      let slot = child_slot ops.cmp n.keys key in
      match insert_rec x ops (nth_kid n.kids slot) key oid with
      | None -> None
      | Some (sep, right) ->
          let lk, rk = split_list n.keys slot in
          let lkid, rkid = split_list n.kids (slot + 1) in
          n.keys <- lk @ (sep :: rk);
          n.kids <- lkid @ (right :: rkid);
          if List.length n.keys <= max_leaf then None
          else begin
            let at = List.length n.keys / 2 in
            let lk, rest = split_list n.keys at in
            match rest with
            | [] -> corrupt "internal split produced no separator"
            | sep :: rk ->
                let lkid, rkid = split_list n.kids (at + 1) in
                let right =
                  Object_store.insert x btree_cls { leaf = false; keys = rk; vals = []; kids = rkid; next = None }
                in
                n.keys <- lk;
                n.kids <- lkid;
                Some (sep, right)
          end
    end

  let insert x ops anchor_oid key oid : unit =
    let a = rw x anchor_cls anchor_oid in
    (match a.a_root with
    | None ->
        let root = Object_store.insert x btree_cls { leaf = true; keys = [ key ]; vals = [ [ oid ] ]; kids = []; next = None } in
        a.a_root <- Some root
    | Some root -> (
        match insert_rec x ops root key oid with
        | None -> ()
        | Some (sep, right) ->
            let new_root =
              Object_store.insert x btree_cls { leaf = false; keys = [ sep ]; vals = []; kids = [ root; right ]; next = None }
            in
            a.a_root <- Some new_root ));
    a.a_count <- a.a_count + 1

  (** Remove (key, oid); no rebalancing — embedded-scale lazy deletion. *)
  let delete x ops anchor_oid key oid : unit =
    let a = rw x anchor_cls anchor_oid in
    let rec go noid =
      let n = ro x btree_cls noid in
      if n.leaf then begin
        let n = rw x btree_cls noid in
        let changed = ref false in
        let rec strip ks vs =
          match (ks, vs) with
          | [], [] -> ([], [])
          | k :: krest, v :: vrest ->
              if ops.cmp key k = 0 then begin
                let v' = List.filter (fun o -> not (Int.equal o oid)) v in
                changed := true;
                if v' = [] then (krest, vrest) else (k :: krest, v' :: vrest)
              end
              else begin
                let ks', vs' = strip krest vrest in
                (k :: ks', v :: vs')
              end
          | _ -> assert false
        in
        let ks, vs = strip n.keys n.vals in
        n.keys <- ks;
        n.vals <- vs;
        !changed
      end
      else go (nth_kid n.kids (child_slot ops.cmp n.keys key))
    in
    match a.a_root with
    | None -> ()
    | Some root -> if go root then a.a_count <- max 0 (a.a_count - 1)

  let exact x ops anchor_oid key : oid list =
    let a = ro x anchor_cls anchor_oid in
    let rec go noid =
      let n = ro x btree_cls noid in
      if n.leaf then
        let rec find ks vs =
          match (ks, vs) with
          | k :: krest, v :: vrest -> if ops.cmp key k = 0 then List.rev v else find krest vrest
          | _ -> []
        in
        find n.keys n.vals
      else go (nth_kid n.kids (child_slot ops.cmp n.keys key))
    in
    match a.a_root with None -> [] | Some root -> go root

  (** Leftmost leaf whose range may contain [min] (or the leftmost leaf). *)
  let rec seek_leaf x ops noid (min : string option) : oid =
    let n = ro x btree_cls noid in
    if n.leaf then noid
    else
      let slot = match min with None -> 0 | Some k -> child_slot ops.cmp n.keys k in
      seek_leaf x ops (nth_kid n.kids slot) min

  (** In-order (key, oids) within [min, max] inclusive. *)
  let range x ops anchor_oid ~(min : string option) ~(max : string option) : (string * oid list) list =
    let a = ro x anchor_cls anchor_oid in
    match a.a_root with
    | None -> []
    | Some root ->
        let acc = ref [] in
        let rec walk leaf_oid =
          let n = ro x btree_cls leaf_oid in
          let stop = ref false in
          List.iter2
            (fun k v ->
              let below = match min with None -> false | Some m -> ops.cmp k m < 0 in
              let above = match max with None -> false | Some m -> ops.cmp k m > 0 in
              if above then stop := true
              else if not below then acc := (k, List.rev v) :: !acc)
            n.keys n.vals;
          if not !stop then match n.next with Some next -> walk next | None -> ()
        in
        walk (seek_leaf x ops root min);
        List.rev !acc

  (** All index node oids (for dropping the index). *)
  let node_oids x anchor_oid : oid list =
    let a = ro x anchor_cls anchor_oid in
    let acc = ref [] in
    let rec go noid =
      acc := noid :: !acc;
      let n = ro x btree_cls noid in
      if not n.leaf then List.iter go n.kids
    in
    (match a.a_root with None -> () | Some root -> go root);
    !acc
end

(* ------------------------------------------------------------------ *)
(* Dynamic hash table (linear hashing, Larson 1988)                    *)
(* ------------------------------------------------------------------ *)

module Hashidx = struct
  (* number of buckets follows from (level, next): m + next *)
  let nbuckets (a : anchor) : int = (1 lsl a.a_level) + a.a_next

  let address (a : anchor) (key : string) : int =
    let h = Gkey.hash_bytes key in
    let m = 1 lsl a.a_level in
    let slot = h mod m in
    if slot < a.a_next then h mod (2 * m) else slot

  let bucket_oid x (a : anchor) (i : int) : oid =
    let seg = ro x dir_seg_cls (nth_or a.a_buckets (i / dir_seg_cap) "directory segment missing") in
    nth_or seg.d_slots (i mod dir_seg_cap) "bucket slot missing"

  let append_bucket x (a : anchor) (b : oid) : unit =
    let last = nth_or a.a_buckets (List.length a.a_buckets - 1) "directory has no segments" in
    let seg = ro x dir_seg_cls last in
    if List.length seg.d_slots < dir_seg_cap then begin
      let seg = rw x dir_seg_cls last in
      seg.d_slots <- seg.d_slots @ [ b ]
    end
    else begin
      let fresh = Object_store.insert x dir_seg_cls { d_slots = [ b ] } in
      a.a_buckets <- a.a_buckets @ [ fresh ]
    end

  let insert x ops anchor_oid key oid : unit =
    let a = rw x anchor_cls anchor_oid in
    let b_oid = bucket_oid x a (address a key) in
    let b = rw x bucket_cls b_oid in
    if ops.unique && List.exists (fun (k, _) -> String.equal k key) b.pairs then
      raise (Duplicate_key { index = ops.index_name; key });
    b.pairs <- (key, oid) :: b.pairs;
    a.a_count <- a.a_count + 1;
    (* split when average load is exceeded *)
    if a.a_count > bucket_split_load * nbuckets a then begin
      let m = 1 lsl a.a_level in
      let victim_oid = bucket_oid x a a.a_next in
      let victim = rw x bucket_cls victim_oid in
      let fresh = Object_store.insert x bucket_cls { pairs = [] } in
      append_bucket x a fresh;
      let stay, move =
        List.partition (fun (k, _) -> Gkey.hash_bytes k mod (2 * m) = Gkey.hash_bytes k mod m) victim.pairs
      in
      victim.pairs <- stay;
      let freshb = rw x bucket_cls fresh in
      freshb.pairs <- move;
      a.a_next <- a.a_next + 1;
      if Int.equal a.a_next m then begin
        a.a_level <- a.a_level + 1;
        a.a_next <- 0
      end
    end

  let delete x _ops anchor_oid key oid : unit =
    let a = rw x anchor_cls anchor_oid in
    let b = rw x bucket_cls (bucket_oid x a (address a key)) in
    let before = List.length b.pairs in
    b.pairs <- List.filter (fun (k, o) -> not (String.equal k key && Int.equal o oid)) b.pairs;
    if List.length b.pairs < before then a.a_count <- max 0 (a.a_count - 1)

  let exact x _ops anchor_oid key : oid list =
    let a = ro x anchor_cls anchor_oid in
    let b = ro x bucket_cls (bucket_oid x a (address a key)) in
    List.rev (List.filter_map (fun (k, o) -> if String.equal k key then Some o else None) b.pairs)

  let all_buckets x (a : anchor) : oid list =
    List.concat_map (fun seg -> (ro x dir_seg_cls seg).d_slots) a.a_buckets

  let scan x anchor_oid : (string * oid) list =
    let a = ro x anchor_cls anchor_oid in
    List.concat_map (fun b_oid -> List.rev (ro x bucket_cls b_oid).pairs) (all_buckets x a)

  let node_oids x anchor_oid : oid list =
    let a = ro x anchor_cls anchor_oid in
    all_buckets x a @ a.a_buckets
end

(* ------------------------------------------------------------------ *)
(* List index                                                          *)
(* ------------------------------------------------------------------ *)

module Listidx = struct
  (* The anchor is opened shared and the head exclusive, so concurrent
     inserters queue on the head's lock and never upgrade one. *)

  let count_of (a : anchor) (head : list_node) : int = Option.value head.l_count ~default:a.a_count

  let insert x ops anchor_oid key oid : unit =
    let a = ro x anchor_cls anchor_oid in
    let head_oid =
      match a.a_root with
      | Some h -> h
      | None ->
          (* an empty list created before the head was fixed *)
          let a = rw x anchor_cls anchor_oid in
          let h = Object_store.insert x list_cls { pairs = []; lnext = None; l_count = Some a.a_count } in
          a.a_root <- Some h;
          h
    in
    let head = rw x list_cls head_oid in
    if ops.unique then begin
      (* linear uniqueness check *)
      let rec dup = function
        | None -> false
        | Some noid ->
            let n = ro x list_cls noid in
            List.exists (fun (k, _) -> String.equal k key) n.pairs || dup n.lnext
      in
      if dup (Some head_oid) then raise (Duplicate_key { index = ops.index_name; key })
    end;
    let count = count_of a head in
    if List.length head.pairs >= max_list_node then begin
      (* spill the full head's pairs into a node right behind it *)
      let spilled = Object_store.insert x list_cls { pairs = head.pairs; lnext = head.lnext; l_count = None } in
      head.lnext <- Some spilled;
      head.pairs <- []
    end;
    head.pairs <- (key, oid) :: head.pairs;
    head.l_count <- Some (count + 1)

  let delete x _ops anchor_oid key oid : unit =
    let a = ro x anchor_cls anchor_oid in
    match a.a_root with
    | None -> ()
    | Some head_oid ->
        let head = rw x list_cls head_oid in
        let hit (k, o) = String.equal k key && Int.equal o oid in
        let rec go = function
          | None -> false
          | Some noid ->
              let n = ro x list_cls noid in
              if List.exists hit n.pairs then begin
                let n = rw x list_cls noid in
                n.pairs <- List.filter (fun p -> not (hit p)) n.pairs;
                true
              end
              else go n.lnext
        in
        if go (Some head_oid) then head.l_count <- Some (max 0 (count_of a head - 1))

  (** Insertion order: pairs are prepended within a node and older nodes
      sit further down the chain. *)
  let scan x anchor_oid : (string * oid) list =
    let a = ro x anchor_cls anchor_oid in
    let rec nodes acc = function
      | None -> acc
      | Some noid ->
          let n = ro x list_cls noid in
          nodes (List.rev n.pairs :: acc) n.lnext
    in
    List.concat (nodes [] a.a_root)

  let count x anchor_oid : int =
    let a = ro x anchor_cls anchor_oid in
    match a.a_root with None -> a.a_count | Some head -> count_of a (ro x list_cls head)

  let exact x _ops anchor_oid key : oid list =
    scan x anchor_oid |> List.filter_map (fun (k, o) -> if String.equal k key then Some o else None)

  let node_oids x anchor_oid : oid list =
    let a = ro x anchor_cls anchor_oid in
    let rec go acc = function
      | None -> acc
      | Some noid -> go (noid :: acc) (ro x list_cls noid).lnext
    in
    go [] a.a_root
end

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let insert x (ops : ops) anchor_oid ~key ~oid : unit =
  match ops.impl with
  | Indexer.Btree -> Btree.insert x ops anchor_oid key oid
  | Indexer.Hash -> Hashidx.insert x ops anchor_oid key oid
  | Indexer.List -> Listidx.insert x ops anchor_oid key oid

let delete x (ops : ops) anchor_oid ~key ~oid : unit =
  match ops.impl with
  | Indexer.Btree -> Btree.delete x ops anchor_oid key oid
  | Indexer.Hash -> Hashidx.delete x ops anchor_oid key oid
  | Indexer.List -> Listidx.delete x ops anchor_oid key oid

let exact x (ops : ops) anchor_oid ~key : oid list =
  match ops.impl with
  | Indexer.Btree -> Btree.exact x ops anchor_oid key
  | Indexer.Hash -> Hashidx.exact x ops anchor_oid key
  | Indexer.List -> Listidx.exact x ops anchor_oid key

(** Full scan: B-tree yields key order; hash and list yield their natural
    (bucket / insertion) order. *)
let scan x (ops : ops) anchor_oid : oid list =
  match ops.impl with
  | Indexer.Btree -> Btree.range x ops anchor_oid ~min:None ~max:None |> List.concat_map snd
  | Indexer.Hash -> Hashidx.scan x anchor_oid |> List.map snd
  | Indexer.List -> Listidx.scan x anchor_oid |> List.map snd

(** Range query [min, max] (inclusive, either side open). B-tree only —
    the hash index cannot enumerate in key order (paper: range queries use
    ordered indexes), and list indexes fall back to a filtered scan. *)
let range x (ops : ops) anchor_oid ~(min : string option) ~(max : string option) : oid list =
  match ops.impl with
  | Indexer.Btree -> Btree.range x ops anchor_oid ~min ~max |> List.concat_map snd
  | Indexer.Hash -> raise (Unsupported_query "range query on a hash index")
  | Indexer.List ->
      Listidx.scan x anchor_oid
      |> List.filter_map (fun (k, o) ->
             let below = match min with None -> false | Some m -> ops.cmp k m < 0 in
             let above = match max with None -> false | Some m -> ops.cmp k m > 0 in
             if below || above then None else Some o)

(** Entries in the index: a list keeps its count in its head node, the
    others in the anchor. *)
let count x (impl : Indexer.impl) anchor_oid : int =
  match impl with
  | Indexer.List -> Listidx.count x anchor_oid
  | Indexer.Btree | Indexer.Hash -> (ro x anchor_cls anchor_oid).a_count

(** Drop all meta-objects of an index (anchor included). *)
let drop x (ops : ops) anchor_oid : unit =
  let nodes =
    match ops.impl with
    | Indexer.Btree -> Btree.node_oids x anchor_oid
    | Indexer.Hash -> Hashidx.node_oids x anchor_oid
    | Indexer.List -> Listidx.node_oids x anchor_oid
  in
  List.iter (fun o -> Object_store.remove x o) nodes;
  Object_store.remove x anchor_oid
