(** Shared/exclusive object locks with timeout-based deadlock breaking
    (paper Section 4.2.3).

    The object store provides "transactional isolation using strict
    two-phase locking"; a blocked open "raises an exception after a timeout
    interval, thus breaking potential deadlocks". The store's single state
    mutex is *released* while a thread waits on a lock — acquire here takes
    that mutex and parks on a {!Condition} tied to it, exactly the
    behaviour the paper describes for avoiding spurious deadlocks between
    the state mutex and transactional locks.

    Waiting is signal-driven, not polled: {!release_all} broadcasts the
    condition, so a waiter wakes the moment a lock becomes free instead of
    spinning on a sleep loop. Timeouts (the deadlock breaker) are driven by
    an on-demand timer thread that sleeps until the earliest waiter
    deadline and broadcasts; it exists only while someone is waiting, so an
    idle or uncontended store runs no background work at all.

    Geared to low concurrency on purpose: no granular locks, no lock
    escalation, a plain hash table of per-object queues. The manager keeps
    no per-transaction index: a transaction records the oids it locked
    and hands them back to {!release_all}. *)

open Tdb_chunk

exception Lock_timeout of { oid : int; txn : int }

type mode = Shared | Exclusive

let mode_shared = function Shared -> true | Exclusive -> false

type entry = { mutable holders : (int * mode) list (* txn id, mode *) }

type t = {
  table : entry Int_table.t;
  cond : Condition.t; (* broadcast on every release (and by the timer) *)
  deadlines : (int, float) Hashtbl.t; (* waiter ticket -> absolute deadline *)
  mutable next_ticket : int;
  mutable timer_running : bool;
}

let create () =
  {
    table = Int_table.create 64;
    cond = Condition.create ();
    deadlines = Hashtbl.create 8;
    next_ticket = 0;
    timer_running = false;
  }

let mode_of t ~txn ~oid =
  match Int_table.find_opt t.table oid with
  | None -> None
  | Some e -> List.assoc_opt txn e.holders

(** Can [txn] acquire [mode] on the entry right now? *)
let grantable (e : entry) ~txn ~mode =
  match mode with
  | Shared -> List.for_all (fun (t', m) -> Int.equal t' txn || mode_shared m) e.holders
  | Exclusive -> List.for_all (fun (t', _) -> Int.equal t' txn) e.holders

(* The deadline timer: sleeps (without holding [mu]) until the earliest
   waiter deadline, then broadcasts so expired waiters can raise
   [Lock_timeout]. Spawned on demand by the first waiter; exits as soon as
   nobody waits. The sleep is capped so a surprisingly early new deadline
   is noticed within a bounded window. *)
let rec timer_loop t (mu : Mutex.t) =
  Mutex.lock mu;
  if Int.equal (Hashtbl.length t.deadlines) 0 then begin
    t.timer_running <- false;
    Mutex.unlock mu
  end
  else begin
    let earliest = Hashtbl.fold (fun _ d acc -> Float.min d acc) t.deadlines infinity in
    Mutex.unlock mu;
    let wait = earliest -. Unix.gettimeofday () in
    if wait > 0.0 then Thread.delay (Float.min wait 0.25);
    Mutex.lock mu;
    Condition.broadcast t.cond;
    Mutex.unlock mu;
    timer_loop t mu
  end

let ensure_timer t (mu : Mutex.t) =
  if not t.timer_running then begin
    t.timer_running <- true;
    ignore (Thread.create (fun () -> timer_loop t mu) ())
  end

(** Acquire (or upgrade to) [mode] on [oid] for [txn]. [mu] is the store's
    state mutex, held by the caller; it is released while waiting (via
    [Condition.wait]).
    @raise Lock_timeout after [timeout] seconds. *)
let acquire t ~(mu : Mutex.t) ~(txn : int) ~(oid : int) ~(mode : mode) ~(timeout : float) : unit =
  (* The entry must be re-resolved after every wait: [release_all] drops
     entries whose holder list empties, so an entry captured before
     parking can be replaced in the table while we sleep — granting
     ourselves on the stale one would hand two transactions the same
     exclusive lock. *)
  let entry () =
    match Int_table.find_opt t.table oid with
    | Some e -> e
    | None ->
        let e = { holders = [] } in
        Int_table.replace t.table oid e;
        e
  in
  let try_grant () =
    let e = entry () in
    match List.assoc_opt txn e.holders with
    | Some Exclusive -> true (* already strongest *)
    | Some Shared when mode_shared mode -> true
    | _ ->
        if grantable e ~txn ~mode then begin
          e.holders <- (txn, mode) :: List.remove_assoc txn e.holders;
          true
        end
        else false
  in
  if not (try_grant ()) then begin
    let deadline = Unix.gettimeofday () +. timeout in
    let ticket = t.next_ticket in
    t.next_ticket <- t.next_ticket + 1;
    Hashtbl.replace t.deadlines ticket deadline;
    ensure_timer t mu;
    Fun.protect
      ~finally:(fun () -> Hashtbl.remove t.deadlines ticket)
      (fun () ->
        let rec wait () =
          if not (try_grant ()) then
            if Unix.gettimeofday () >= deadline then begin
              (* drop the entry if we were the only party interested, so a
                 timed-out wait leaves no empty entry behind *)
              (match Int_table.find_opt t.table oid with
              | Some { holders = [] } -> Int_table.remove t.table oid
              | Some _ | None -> ());
              raise (Lock_timeout { oid; txn })
            end
            else begin
              (* parks the thread and releases the state mutex atomically,
                 as the paper requires; a release or the deadline timer
                 wakes it *)
              Condition.wait t.cond mu;
              wait ()
            end
        in
        wait ())
  end

(** Strict two-phase locking: all locks are released together at the end of
    the transaction. [oids] is every oid [txn] acquired, as the transaction
    recorded them; an oid listed twice (an upgrade) or no longer held is
    passed over. Waiters are woken so they can re-check grantability. *)
let release_all t ~(txn : int) ~(oids : int list) : unit =
  match oids with
  | [] -> ()
  | _ ->
      List.iter
        (fun oid ->
          match Int_table.find_opt t.table oid with
          | None -> ()
          | Some e -> (
              e.holders <- List.remove_assoc txn e.holders;
              match e.holders with [] -> Int_table.remove t.table oid | _ :: _ -> ()))
        oids;
      Condition.broadcast t.cond

let held_count t = Int_table.length t.table
