(** Deterministic random bit generator built on SHA-256.

    A simple hash-DRBG: each request rekeys the state as
    [state_{i+1} = H(0x01 || state_i)] and produces output blocks
    [H(0x02 || state_i || counter)]. Deterministic seeding keeps tests and
    benchmarks reproducible; production embedders reseed from the platform
    secret store plus device entropy.

    Thread safety: the mutable [(state, reqs)] pair is guarded by a
    per-instance mutex. Without it, two threads can read the same state
    and emit {e identical} output — fatal for IV generation: the runtime
    may switch threads at the digest's allocation, between the read and
    the advance. The critical section covers just the state advance;
    output blocks are computed from the reserved snapshot outside the
    lock, so concurrent callers each derive from a distinct request
    number and single-threaded output is byte-for-byte unchanged. *)

type t = { mu : Mutex.t; mutable state : string; mutable reqs : int }

let create ~(seed : string) : t =
  { mu = Mutex.create (); state = Sha256.digest ("tdb-drbg-seed" ^ seed); reqs = 0 }

(* Reserve the current (state, reqs) for one request and advance. *)
let reserve (t : t) : string * int =
  Mutex.lock t.mu;
  let state = t.state and reqs = t.reqs in
  t.reqs <- t.reqs + 1;
  t.state <- Sha256.digest ("\x01" ^ state);
  Mutex.unlock t.mu;
  (state, reqs)

let generate (t : t) (n : int) : string =
  if n < 0 then invalid_arg "Drbg.generate";
  let state, reqs = reserve t in
  let buf = Buffer.create n in
  let ctr = ref 0 in
  while Buffer.length buf < n do
    let block = Sha256.digest (Printf.sprintf "\x02%s%d.%d" state reqs !ctr) in
    Buffer.add_string buf block;
    incr ctr
  done;
  Buffer.sub buf 0 n

(** Derive an independent generator, e.g. one per chunk-store instance. *)
let split (t : t) (label : string) : t =
  Mutex.lock t.mu;
  let state = t.state in
  t.state <- Sha256.digest ("\x01" ^ state);
  Mutex.unlock t.mu;
  create ~seed:(state ^ "/" ^ label)

(** 63-bit non-negative integer in [0, bound). *)
let int (t : t) (bound : int) : int =
  if bound <= 0 then invalid_arg "Drbg.int";
  let s = generate t 8 in
  let v = ref 0 in
  String.iter (fun c -> v := ((!v lsl 8) lor Char.code c) land max_int) s;
  !v mod bound
