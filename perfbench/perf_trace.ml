(* In-memory span recorder. A span is (name, start, stop, parent, op id);
   roots are the benchmark's own [op], [maint] and [recovery] spans, and
   every span opened while another is open on the same thread nests under
   it. Nothing is written anywhere until [aggregate] runs at the end. *)

open Tdb_platform

let enabled = Atomic.make false
(* Seconds on the monotonic clock, at nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type buf = {
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable ops : int array;
  mutable len : int;
}

let buf =
  { names = Array.make 65536 ""; starts = Array.make 65536 0.; stops = Array.make 65536 0.;
    parents = Array.make 65536 (-1); ops = Array.make 65536 (-1); len = 0 }

let mu = Mutex.create ()

(* Per-thread stack of open span indices, with the op id of its root. *)
let stacks : (int, int list * int) Hashtbl.t = Hashtbl.create 8

let reset () =
  Mutex.protect mu (fun () ->
      buf.len <- 0;
      Hashtbl.reset stacks)

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let open_span name ~op_id =
  let tid = Thread.id (Thread.self ()) in
  Mutex.protect mu (fun () ->
      if buf.len = Array.length buf.names then begin
        buf.names <- grow buf.names "";
        buf.starts <- grow buf.starts 0.;
        buf.stops <- grow buf.stops 0.;
        buf.parents <- grow buf.parents (-1);
        buf.ops <- grow buf.ops (-1)
      end;
      let stack, op = Option.value (Hashtbl.find_opt stacks tid) ~default:([], -1) in
      let op = match op_id with Some o -> o | None -> op in
      let i = buf.len in
      buf.len <- i + 1;
      buf.names.(i) <- name;
      buf.parents.(i) <- (match stack with p :: _ -> p | [] -> -1);
      buf.ops.(i) <- op;
      Hashtbl.replace stacks tid (i :: stack, op);
      buf.starts.(i) <- now ();
      i)

let close_span i =
  let t = now () in
  let tid = Thread.id (Thread.self ()) in
  Mutex.protect mu (fun () ->
      buf.stops.(i) <- t;
      match Hashtbl.find_opt stacks tid with
      | Some (_ :: rest, op) -> Hashtbl.replace stacks tid (rest, if rest = [] then -1 else op)
      | Some ([], _) | None -> ())

let run_span name op_id f =
  if not (Atomic.get enabled) then f ()
  else begin
    let i = open_span name ~op_id in
    match f () with
    | v ->
        close_span i;
        v
    | exception e ->
        close_span i;
        raise e
  end

(* A layer call nested under whatever span is open on this thread. *)
let span name f = run_span name None f

(* A root span ([op], [maint] or [recovery]) carrying op id [id]. *)
let root name ~id f = run_span name (Some id) f

(* {1 Platform seams} — the same record-wrapping seam the simulated disk
   uses: every call into the file-backed store or counter becomes a span. *)

let wrap_store (s : Untrusted_store.t) : Untrusted_store.t =
  {
    s with
    Untrusted_store.read = (fun ~off ~len -> span "untrusted_store.read" (fun () -> s.Untrusted_store.read ~off ~len));
    write = (fun ~off data -> span "untrusted_store.write" (fun () -> s.Untrusted_store.write ~off data));
    writev = (fun ~off frags -> span "untrusted_store.write" (fun () -> s.Untrusted_store.writev ~off frags));
    sync = (fun () -> span "untrusted_store.sync" (fun () -> s.Untrusted_store.sync ()));
  }

let bumps = Atomic.make 0

let wrap_counter (c : One_way_counter.t) : One_way_counter.t =
  {
    One_way_counter.read = c.One_way_counter.read;
    increment =
      (fun () ->
        Atomic.incr bumps;
        span "one_way_counter.bump" (fun () -> One_way_counter.increment c));
  }

(* {1 Aggregation} *)

type agg = {
  mutable count : int;
  mutable total : float;  (** summed duration *)
  mutable self : float;  (** summed duration minus the union of its children *)
  mutable op_total : float;  (** summed duration of the calls made under an [op] root *)
}

(* Per span name, plus the summed self time of every span under an [op]
   root (which partitions the ops' wall time). *)
let aggregate () : (string, agg) Hashtbl.t * float =
  Mutex.protect mu (fun () ->
      let n = buf.len in
      let children = Array.make n [] and in_op = Array.make n false in
      (* a parent always opens, so is numbered, before its children *)
      for i = 0 to n - 1 do
        let p = buf.parents.(i) in
        in_op.(i) <- (if p < 0 then String.equal buf.names.(i) "op" else in_op.(p));
        if p >= 0 then children.(p) <- (buf.starts.(i), buf.stops.(i)) :: children.(p)
      done;
      let tbl = Hashtbl.create 32 and op_self = ref 0. in
      for i = 0 to n - 1 do
        let a =
          match Hashtbl.find_opt tbl buf.names.(i) with
          | Some a -> a
          | None ->
              let a = { count = 0; total = 0.; self = 0.; op_total = 0. } in
              Hashtbl.replace tbl buf.names.(i) a;
              a
        in
        let start = buf.starts.(i) and stop = buf.stops.(i) in
        let self = Perf_stats.self_time ~start ~stop children.(i) in
        a.count <- a.count + 1;
        a.total <- a.total +. (stop -. start);
        a.self <- a.self +. self;
        if in_op.(i) then begin
          a.op_total <- a.op_total +. (stop -. start);
          op_self := !op_self +. self
        end
      done;
      (tbl, !op_self))
