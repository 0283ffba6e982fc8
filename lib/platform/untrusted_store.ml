(** The untrusted store (paper Figure 1): a random-access byte store holding
    the database, which an attacker may arbitrarily read or modify.

    Two implementations are provided:
    - {!open_file}: a real file (the paper's evaluation stores the database
      in an NTFS file and opens logs write-through; we sync on demand).
    - {!open_mem}: an in-memory store with *fault injection* — it models a
      crash that loses an arbitrary subset of unsynced writes, and exposes
      tampering hooks that model the paper's attacker (offline analysis and
      modification of removable media). Used heavily by the recovery and
      tamper-detection tests.

    The store is dumb on purpose: everything above it (chunk store) must
    assume its contents are hostile. *)

type stats = {
  mutable reads : int;
  mutable writes : int; (* write calls: a writev counts once *)
  mutable fragments : int; (* fragments written: a writev counts its list length *)
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable syncs : int;
}

let fresh_stats () = { reads = 0; writes = 0; fragments = 0; bytes_read = 0; bytes_written = 0; syncs = 0 }

type t = {
  read : off:int -> len:int -> bytes;
  write : off:int -> string -> unit;
  writev : off:int -> string list -> unit;
  size : unit -> int;
  set_size : int -> unit;
  sync : unit -> unit;
  close : unit -> unit;
  stats : stats;
}

let read t = t.read
let write t = t.write
let writev t = t.writev
let size t = t.size ()
let set_size t n = t.set_size n
let sync t = t.sync ()
let close t = t.close ()
let stats t = t.stats

(** A mutating operation about to hit the store, as seen by an
    {!interpose} hook. *)
type op = Op_write of { off : int; data : string } | Op_set_size of int | Op_sync

(** Wrap a store so [before] observes every mutating operation at its
    write/sync boundary, before it reaches the underlying store. The hook
    may raise to model a crash arrested exactly at that boundary (the
    fault-injection harness does); reads pass through untouched. *)
let interpose ~(before : op -> unit) (s : t) : t =
  {
    s with
    write =
      (fun ~off data ->
        before (Op_write { off; data });
        s.write ~off data);
    writev =
      (fun ~off frags ->
        (* Decompose a vectored write into per-fragment boundaries: the hook
           observes (and may crash at) every fragment edge, and fragments
           before the crash point reach the underlying store individually —
           so a torn writev loses an arbitrary fragment suffix, exactly like
           the equivalent sequence of plain writes. *)
        let _ =
          List.fold_left
            (fun off frag ->
              if String.length frag > 0 then begin
                before (Op_write { off; data = frag });
                s.write ~off frag
              end;
              off + String.length frag)
            off frags
        in
        ());
    set_size =
      (fun n ->
        before (Op_set_size n);
        s.set_size n);
    sync =
      (fun () ->
        before Op_sync;
        s.sync ());
  }

(* ------------------------------------------------------------------ *)
(* In-memory store with crash and tamper injection                     *)
(* ------------------------------------------------------------------ *)

(** Unsynced operation: a write, or a size change (truncate/extend). Size
    changes are metadata updates that survive crashes deterministically;
    data writes may or may not (see {!Mem.crash}). *)
type mem_op = W of int * string | T of int

type mem = {
  mutable cur : Bytes.t; (* current contents, including unsynced writes *)
  mutable cur_size : int;
  mutable stable : Bytes.t; (* contents as of the last sync *)
  mutable stable_size : int;
  mutable pending : mem_op list; (* unsynced ops, newest first *)
}

let ensure_capacity m n =
  if Bytes.length m.cur < n then begin
    let cap = max n (2 * Bytes.length m.cur) in
    let nb = Bytes.make cap '\000' in
    Bytes.blit m.cur 0 nb 0 m.cur_size;
    m.cur <- nb
  end

(* Apply one op to a (buffer, size) image, growing the buffer as needed.
   Returns the new (buffer, size). *)
let apply_op (buf, size) = function
  | T n ->
      let buf =
        if Bytes.length buf < n then begin
          let grown = Bytes.make (max n (2 * Bytes.length buf)) '\000' in
          Bytes.blit buf 0 grown 0 size;
          grown
        end
        else buf
      in
      if n > size then Bytes.fill buf size (n - size) '\000';
      (buf, n)
  | W (off, s) ->
      let need = off + String.length s in
      let buf =
        if Bytes.length buf < need then begin
          let grown = Bytes.make (max need (2 * Bytes.length buf)) '\000' in
          Bytes.blit buf 0 grown 0 size;
          grown
        end
        else buf
      in
      Bytes.blit_string s 0 buf off (String.length s);
      (buf, max size need)

let mem_handle () : mem * t =
  let m =
    { cur = Bytes.make 4096 '\000'; cur_size = 0; stable = Bytes.create 0; stable_size = 0; pending = [] }
  in
  let stats = fresh_stats () in
  let read ~off ~len =
    if off < 0 || len < 0 || off + len > m.cur_size then
      invalid_arg (Printf.sprintf "Untrusted_store.read: [%d,%d) out of [0,%d)" off (off + len) m.cur_size);
    stats.reads <- stats.reads + 1;
    stats.bytes_read <- stats.bytes_read + len;
    Bytes.sub m.cur off len
  in
  let pending_count = ref 0 in
  let destage_old () =
    (* A real disk destages its cache lazily: writes that have sat unsynced
       for a long time are almost certainly on the platter. Folding the
       oldest half of a very large pending journal into the stable image
       models that and bounds memory on stores that never sync (e.g. a
       page file without checkpoints). *)
    if !pending_count > 50_000 then begin
      let ops = List.rev m.pending in
      let keep = !pending_count / 2 in
      let oldest = List.filteri (fun i _ -> i < !pending_count - keep) ops in
      let newest = List.filteri (fun i _ -> i >= !pending_count - keep) ops in
      let buf, size = List.fold_left apply_op (m.stable, m.stable_size) oldest in
      m.stable <- buf;
      m.stable_size <- size;
      m.pending <- List.rev newest;
      pending_count := keep
    end
  in
  let blit_one ~off s =
    let len = String.length s in
    ensure_capacity m (off + len);
    (* writing past the current end extends the store; the hole (if any)
       reads as zeros, like a sparse file *)
    if off > m.cur_size then Bytes.fill m.cur m.cur_size (off - m.cur_size) '\000';
    Bytes.blit_string s 0 m.cur off len;
    if off + len > m.cur_size then m.cur_size <- off + len;
    m.pending <- W (off, s) :: m.pending;
    incr pending_count
  in
  let write ~off s =
    if off < 0 then invalid_arg "Untrusted_store.write: negative offset";
    blit_one ~off s;
    destage_old ();
    stats.writes <- stats.writes + 1;
    stats.fragments <- stats.fragments + 1;
    stats.bytes_written <- stats.bytes_written + String.length s
  in
  let writev ~off frags =
    if off < 0 then invalid_arg "Untrusted_store.writev: negative offset";
    (* One store operation, but each fragment stays a separate pending entry
       so a crash can lose an arbitrary subset of fragments (a torn vectored
       write), matching the per-fragment boundaries [interpose] exposes. *)
    let total =
      List.fold_left
        (fun o frag ->
          if String.length frag > 0 then blit_one ~off:o frag;
          o + String.length frag)
        off frags
      - off
    in
    if total > 0 then begin
      destage_old ();
      stats.writes <- stats.writes + 1;
      stats.fragments <- stats.fragments + List.length (List.filter (fun f -> String.length f > 0) frags);
      stats.bytes_written <- stats.bytes_written + total
    end
  in
  let sync () =
    stats.syncs <- stats.syncs + 1;
    (* apply pending ops to the stable image incrementally: O(bytes written
       since the last sync), not O(store size) *)
    let buf, size =
      List.fold_left apply_op (m.stable, m.stable_size) (List.rev m.pending)
    in
    m.stable <- buf;
    m.stable_size <- size;
    m.pending <- [];
    pending_count := 0
  in
  let set_size n =
    ensure_capacity m n;
    if n > m.cur_size then Bytes.fill m.cur m.cur_size (n - m.cur_size) '\000';
    m.cur_size <- n;
    m.pending <- T n :: m.pending;
    incr pending_count
  in
  ( m,
    {
      read;
      write;
      writev;
      size = (fun () -> m.cur_size);
      set_size;
      sync;
      close = (fun () -> ());
      stats;
    } )

(** Attacker's and fault-injector's view of an in-memory store. *)
module Mem = struct
  type handle = mem

  (** Simulate a crash: all synced state survives; each unsynced write
      independently survives with probability [persist_prob] (drawn from
      [rng]), modelling a disk that may or may not have destaged its cache.
      The store is afterwards in the post-crash state. *)
  let crash ?(persist_prob = 0.5) ~(rng : int -> int) (m : handle) : unit =
    (* size changes (journaled metadata) always survive; each unsynced data
       write independently survives with [persist_prob] *)
    let survivors =
      List.filter
        (function
          | T _ -> true
          | W _ -> rng 1000 < int_of_float (persist_prob *. 1000.))
        (List.rev m.pending)
    in
    let buf, size = List.fold_left apply_op (Bytes.sub m.stable 0 m.stable_size, m.stable_size) survivors in
    m.cur <- buf;
    m.cur_size <- size;
    m.stable <- Bytes.sub buf 0 size;
    m.stable_size <- size;
    m.pending <- []

  (** Crash losing *all* unsynced writes (clean power cut). *)
  let crash_hard (m : handle) : unit = crash ~persist_prob:0.0 ~rng:(fun _ -> 0) m

  (** Attacker primitive: overwrite [len] bytes at [off] by xoring a mask —
      i.e. offline modification of removable media. *)
  let corrupt (m : handle) ~off ~len ~(mask : int) : unit =
    for i = off to min (off + len) m.cur_size - 1 do
      Bytes.set m.cur i (Char.chr (Char.code (Bytes.get m.cur i) lxor mask));
      if i < m.stable_size then Bytes.set m.stable i (Char.chr (Char.code (Bytes.get m.stable i) lxor mask))
    done

  (** Attacker primitive: full image copy (save for later replay). *)
  let snapshot (m : handle) : Bytes.t = Bytes.sub m.cur 0 m.cur_size

  (** Attacker primitive: replay a previously saved image. *)
  let restore (m : handle) (img : Bytes.t) : unit =
    m.cur <- Bytes.copy img;
    m.cur_size <- Bytes.length img;
    m.stable <- Bytes.copy img;
    m.stable_size <- Bytes.length img;
    m.pending <- []

  (** Raw view, for scanning the image (attacker "analysis"). *)
  let contents (m : handle) : string = Bytes.sub_string m.cur 0 m.cur_size

  (** Fault-injector primitive: an independent copy, unsynced writes still
      unsynced, so crashing the copy leaves the original untouched. *)
  let clone (m : handle) : handle * t =
    let c, store = mem_handle () in
    c.cur <- Bytes.copy m.cur;
    c.cur_size <- m.cur_size;
    c.stable <- Bytes.copy m.stable;
    c.stable_size <- m.stable_size;
    c.pending <- m.pending;
    (c, store)
end

let open_mem () : Mem.handle * t = mem_handle ()

(* ------------------------------------------------------------------ *)
(* File-backed store                                                   *)
(* ------------------------------------------------------------------ *)

let open_file (path : string) : t =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o600 in
  let stats = fresh_stats () in
  let size = ref (Unix.fstat fd).Unix.st_size in
  let read ~off ~len =
    if off < 0 || len < 0 || off + len > !size then
      invalid_arg (Printf.sprintf "Untrusted_store.read: [%d,%d) out of [0,%d)" off (off + len) !size);
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    let buf = Bytes.create len in
    let rec fill pos =
      if pos < len then begin
        let n = Unix.read fd buf pos (len - pos) in
        if n = 0 then invalid_arg "Untrusted_store.read: short read";
        fill (pos + n)
      end
    in
    fill 0;
    stats.reads <- stats.reads + 1;
    stats.bytes_read <- stats.bytes_read + len;
    buf
  in
  let write_bytes ~off b =
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    let rec drain pos =
      if pos < Bytes.length b then drain (pos + Unix.write fd b pos (Bytes.length b - pos))
    in
    drain 0;
    if off + Bytes.length b > !size then size := off + Bytes.length b
  in
  let write ~off s =
    write_bytes ~off (Bytes.unsafe_of_string s);
    stats.writes <- stats.writes + 1;
    stats.fragments <- stats.fragments + 1;
    stats.bytes_written <- stats.bytes_written + String.length s
  in
  let writev ~off frags =
    let total = List.fold_left (fun n f -> n + String.length f) 0 frags in
    if total > 0 then begin
      (* coalesce into one contiguous kernel write: one seek, one syscall run *)
      let buf = Bytes.create total in
      let _ =
        List.fold_left
          (fun pos f ->
            Bytes.blit_string f 0 buf pos (String.length f);
            pos + String.length f)
          0 frags
      in
      write_bytes ~off buf;
      stats.writes <- stats.writes + 1;
      stats.fragments <- stats.fragments + List.length (List.filter (fun f -> String.length f > 0) frags);
      stats.bytes_written <- stats.bytes_written + total
    end
  in
  {
    read;
    write;
    writev;
    size = (fun () -> !size);
    set_size =
      (fun n ->
        (* the log re-asserts its size at every durable barrier; a
           same-size truncate is a wasted syscall *)
        if not (Int.equal n !size) then begin
          Unix.ftruncate fd n;
          size := n
        end);
    sync =
      (fun () ->
        stats.syncs <- stats.syncs + 1;
        Unix.fsync fd);
    close = (fun () -> Unix.close fd);
    stats;
  }
