(** Annotation tables for the interprocedural analyses (R6 secret-taint,
    R7 lock discipline).

    These tables *are* the machine-checked statement of TDB's trust
    boundary: which values are secret (taint sources), which operations
    ship bytes across the trusted/untrusted line (sinks), which
    transformations make a secret safe to ship (sanitizers), and which
    mutexes coordinate the threaded layers (lock discipline). When a new
    module introduces a key, a boundary write or a mutex, it gets a row
    here — DESIGN.md ("Static analysis") walks through how.

    Matching is by the *tail* of a dotted path: [("Security", "unseal")]
    matches [Security.unseal], [Tdb_chunk.Security.unseal] and, within
    [security.ml] itself, a bare [unseal] call resolved by the dataflow
    layer. An empty module component matches any qualifier as well as a
    bare (stdlib) identifier. *)

type fn_key = {
  k_module : string;  (** "" = any qualifier, including none *)
  k_name : string;
  k_why : string;  (** one-line rationale, surfaced in violations *)
}

let key m n why = { k_module = m; k_name = n; k_why = why }

(* ------------------------------------------------------------------ *)
(* R6: secret taint                                                    *)
(* ------------------------------------------------------------------ *)

(** Function results that are secret: key material derived from the
    platform secret store, and plaintext recovered from sealed storage. *)
let taint_sources =
  [
    key "Secret_store" "derive" "key derived from the platform secret";
    key "Secret_store" "derive_len" "key derived from the platform secret";
    key "Security" "unseal" "decrypted chunk payload";
    key "Cbc" "decrypt" "CBC plaintext";
    key "Chunk_cache" "find" "cached decrypted chunk payload";
  ]

(** Record fields holding key material: projecting one taints the result
    even though the carrying record (an opaque context) does not. *)
let sensitive_fields = [ "mac_key" ]

(** Applications whose result is safe to ship across the boundary no
    matter how secret the inputs: encryption, MACs and one-way digests.
    [generic_sanitizer_names] additionally matches any path tail, so the
    functor-style [H.digest] sanitizes without a per-instance row. *)
let taint_sanitizers =
  [
    key "Security" "seal" "";
    key "Security" "mac" "";
    key "Security" "label" "";
    key "Security" "check_label" "";
    key "Security" "check_mac" "";
    key "Hmac" "mac" "";
    key "Hmac" "sha256" "";
    key "Hmac" "precompute" "ipad/opad state stays inside Hmac";
    key "Cbc" "encrypt" "";
    key "Gkey" "hash_bytes" "";
    key "Ct" "equal_string" "";
    key "Ct" "equal_bytes" "";
  ]

let generic_sanitizer_names = [ "digest" ]

(** Writes that cross the trust boundary: the untrusted store and the
    archival store (attacker-readable media), the raw log append (bytes
    land in the untrusted store verbatim at the next flush — framing is
    the caller's job, sealing must happen first), the wire encoders, and
    plain file/socket/console output. *)
let taint_sinks =
  [
    key "Untrusted_store" "write" "untrusted store write";
    key "Untrusted_store" "writev" "untrusted store write";
    key "Untrusted_store" "interpose" "untrusted store hook";
    key "Archival_store" "put" "archival (backup) media write";
    key "Log" "append" "raw log append (flushed to the untrusted store)";
    key "Proto" "write_frame" "wire write";
    key "Proto" "encode_request" "wire encoding";
    key "Proto" "encode_response" "wire encoding";
    key "Unix" "write" "file/socket write";
    key "Unix" "single_write" "file/socket write";
    key "Unix" "send" "socket write";
    key "" "output_string" "channel write";
    key "" "output_bytes" "channel write";
    key "" "print_string" "console write";
    key "" "print_endline" "console write";
    key "" "prerr_string" "console write";
    key "" "prerr_endline" "console write";
  ]

(** Where R6 violations are reported. Taint *propagates* through every
    scanned file; it is only an error when a tainted value reaches a sink
    from the seal-pipeline layers or the executables. [lib/platform] is
    deliberately absent: it implements the boundary (the untrusted store
    itself, the secret-store ROM image), so its writes are below the line
    the analysis enforces. *)
let taint_report_dirs = [ "lib/crypto"; "lib/chunk"; "lib/backup"; "lib/core"; "bin" ]

(* ------------------------------------------------------------------ *)
(* R7: lock discipline                                                 *)
(* ------------------------------------------------------------------ *)

(** Calls that can block for an unbounded or I/O-scale time: holding a
    choreography mutex across one of these stalls every thread that needs
    the mutex (and [Condition] signalling through it). *)
let blocking_calls =
  [
    key "Unix" "read" "blocking read";
    key "Unix" "write" "blocking write";
    key "Unix" "single_write" "blocking write";
    key "Unix" "select" "blocking select";
    key "Unix" "accept" "blocking accept";
    key "Unix" "connect" "blocking connect";
    key "Unix" "recv" "blocking recv";
    key "Unix" "send" "blocking send";
    key "Unix" "sleepf" "sleep";
    key "Unix" "sleep" "sleep";
    key "Thread" "delay" "sleep";
    key "Thread" "join" "thread join";
    key "Domain" "join" "domain join";
    key "Pool" "map" "parks the coordinator until every pool worker drains";
    key "Untrusted_store" "read" "store read (disk I/O)";
    key "Untrusted_store" "write" "store write (disk I/O)";
    key "Untrusted_store" "writev" "store write (disk I/O)";
    key "Untrusted_store" "sync" "store sync (durability barrier)";
  ]

(** Mutexes under which blocking I/O is the *documented design*, exempt
    from the blocking-call rule (they still participate in lock ordering
    and the [Condition.wait] rule):

    - [Object_store.mu] — the paper's single store state mutex (Section
      4.2.3): chunk reads, buffered log appends and nondurable commits
      run under it by construction; the staged barrier exists precisely
      to keep the expensive part (the durable sync) outside it, and
      [Lock_manager] releases it while parked on an object lock.
    - [Client.mu] — serializes whole request/response round trips on one
      connection; holding it across the socket I/O is its purpose.

    Adding a lock here is an architectural decision: record the
    justification in DESIGN.md alongside the entry. *)
let io_locks = [ "Object_store.mu"; "Client.mu" ]

(** Where R7 violations are reported: the threaded layers grown by the
    service/group-commit work. *)
let lock_report_dirs = [ "lib/server"; "lib/objstore"; "lib/chunk"; "lib/parallel" ]

(** Effectful calls that must stay on the coordinator domain: anything
    that draws from or advances shared randomness / sealing state. Safe
    under a mutex (Drbg locks internally; the IV seal count is atomic) but
    {e order-destroying} when it runs inside a [Domain.spawn] body or a
    pool worker: commit determinism depends on IVs being drawn
    sequentially in operation order, so the R7 walker flags these (and
    anything that transitively calls them) inside spawned code. *)
let coordinator_only =
  [
    key "Drbg" "generate" "DRBG draw (IV order must be deterministic)";
    key "Drbg" "int" "DRBG draw (IV order must be deterministic)";
    key "Drbg" "split" "DRBG reseed (stream order must be deterministic)";
    key "Security" "seal" "advances the IV session's seal count";
    key "Security" "draw_iv" "advances the IV session's seal count";
    key "Security" "start_session" "restarts the IV session";
  ]

(* ------------------------------------------------------------------ *)
(* Matching                                                            *)
(* ------------------------------------------------------------------ *)

let strip_stdlib = function ("Stdlib" | "Pervasives") :: rest -> rest | p -> p

(** Does dotted path [p] (already flattened) match [k]? The name must be
    the path tail; a nonempty [k_module] must be the immediately
    preceding component, an empty one matches any prefix including a
    bare identifier. *)
let matches (k : fn_key) (p : string list) : bool =
  match List.rev (strip_stdlib p) with
  | [] -> false
  | name :: rev_prefix -> (
      String.equal name k.k_name
      &&
      match rev_prefix with
      | [] -> String.equal k.k_module ""
      | m :: _ -> String.equal k.k_module "" || String.equal k.k_module m)

let find_in table p = List.find_opt (fun k -> matches k p) table

let is_source p = Option.is_some (find_in taint_sources p)

let is_sanitizer p =
  Option.is_some (find_in taint_sanitizers p)
  ||
  match List.rev (strip_stdlib p) with
  | name :: _ -> List.exists (String.equal name) generic_sanitizer_names
  | [] -> false

let sink_of p = find_in taint_sinks p
let blocking_of p = find_in blocking_calls p
let coordinator_only_of p = find_in coordinator_only p
let is_sensitive_field name = List.exists (String.equal name) sensitive_fields
let is_io_lock name = List.exists (String.equal name) io_locks

let path_under dir path =
  let prefix = dir ^ "/" in
  let n = String.length prefix in
  String.length path >= n && String.equal (String.sub path 0 n) prefix

let in_dirs dirs path = List.exists (fun d -> path_under d path) dirs
let taint_reported path = in_dirs taint_report_dirs path
let lock_reported path = in_dirs lock_report_dirs path
