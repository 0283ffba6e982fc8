(** Waiting for shared/exclusive object locks, with timeout-based deadlock
    breaking (paper Section 4.2.3).

    The object store provides "transactional isolation using strict
    two-phase locking"; a blocked open "raises an exception after a timeout
    interval, thus breaking potential deadlocks". The locks are words on
    the object-cache entries (see object_store.ml); what lives here is the
    blocked path. The store's single state mutex is *released* while a
    thread waits on a lock: {!wait_for} parks on a {!Condition} tied to
    that mutex, exactly the behaviour the paper describes for avoiding
    spurious deadlocks between the state mutex and transactional locks.

    Waiting is signal-driven, not polled: a release calls {!wake}, which
    broadcasts the condition when anyone waits, so a waiter retries the
    moment a lock becomes free instead of spinning on a sleep loop.
    Timeouts (the deadlock breaker) are driven by an on-demand timer
    thread that sleeps until the earliest waiter deadline and broadcasts;
    it exists only while someone is waiting, so an idle or uncontended
    store runs no background work at all. *)

exception Lock_timeout of { oid : int; txn : int }

type mode = Shared | Exclusive

type t = {
  cond : Condition.t; (* broadcast by [wake] (and by the timer) *)
  deadlines : (int, float) Hashtbl.t; (* waiter ticket -> absolute deadline *)
  mutable next_ticket : int;
  mutable timer_running : bool;
  mutable waits : int;
  mutable timeouts : int;
}

let create () =
  {
    cond = Condition.create ();
    deadlines = Hashtbl.create 8;
    next_ticket = 0;
    timer_running = false;
    waits = 0;
    timeouts = 0;
  }

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

(** Wait, releasing [mu] (held by the caller), until [grant ()] succeeds.
    [grant] re-resolves the object after every wake: an aborting writer
    drops its entry from the cache, so an entry captured before parking
    may no longer be the object's.
    @raise Lock_timeout after [timeout] seconds. *)
let wait_for t ~(mu : Mutex.t) ~(txn : int) ~(oid : int) ~(timeout : float) (grant : unit -> 'a option) : 'a =
  t.waits <- t.waits + 1;
  let deadline = Unix.gettimeofday () +. timeout in
  let ticket = t.next_ticket in
  t.next_ticket <- t.next_ticket + 1;
  Hashtbl.replace t.deadlines ticket deadline;
  ensure_timer t mu;
  Fun.protect
    ~finally:(fun () -> Hashtbl.remove t.deadlines ticket)
    (fun () ->
      let rec wait () =
        if Unix.gettimeofday () >= deadline then begin
          t.timeouts <- t.timeouts + 1;
          raise (Lock_timeout { oid; txn })
        end
        else begin
          (* parks the thread and releases the state mutex atomically,
             as the paper requires; a release or the deadline timer
             wakes it *)
          Condition.wait t.cond mu;
          match grant () with Some v -> v | None -> wait ()
        end
      in
      wait ())

let wake t = if Hashtbl.length t.deadlines > 0 then Condition.broadcast t.cond
let waits t = t.waits
let timeouts t = t.timeouts
