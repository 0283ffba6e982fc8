(** Syntactic lint rules enforcing TDB's trusted-code-base invariants.

    Five rules, checked over the parsetree (no type information):

    - R1 — polymorphic [=]/[<>]/[compare]/[Hashtbl.hash]
      anywhere under [lib/], except against syntactically immediate
      operands (int/char/float literals, [true]/[false]/[()]/[None]/[[]],
      known int-returning primitives).
    - R2 — in [lib/crypto], [lib/chunk] and [lib/backup], equality on
      values whose
      identifiers look like [mac]/[tag]/[digest]/[hmac]/[label] material
      must use [Ct.equal_string]/[Ct.equal_bytes].
    - R3 — [Obj], [Marshal], [Random], [Domain] banned in the trusted
      layers ([lib/chunk], [lib/crypto], [lib/objstore], [lib/backup],
      [lib/platform], [lib/server], [bin]).
    - R4 — partial/unsafe functions ([List.hd]/[tl]/[nth], [Option.get],
      [Bytes.unsafe_*], [String.unsafe_*], [Array.unsafe_*]) and
      catch-all [try ... with _ ->].
    - R5 — every module under [lib/] must expose an [.mli].

    R6 (secret taint, {!Taint}) and R7 (lock discipline, {!Lockcheck})
    are interprocedural; they share this [rule]/[violation] vocabulary
    and the allowlist but run from {!Driver} over the whole program. *)

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7

val rule_id : rule -> string
(** ["R1"] ... ["R7"]. *)

val rule_of_id : string -> rule option
val rule_equal : rule -> rule -> bool

type violation = {
  v_file : string;  (** repo-relative path, '/'-separated *)
  v_line : int;  (** 1-based *)
  v_col : int;  (** 0-based *)
  v_rule : rule;
  v_msg : string;
}

val check_source : path:string -> string -> violation list
(** [check_source ~path source] parses [source] as an implementation and
    returns its violations sorted by position. [path] is the
    repo-relative path used both for layer classification and for
    [v_file]. @raise Syntaxerr.Error on unparsable input. *)

val missing_interface : path:string -> violation
(** The R5 violation for an [.ml] with no sibling [.mli]; the caller
    ({!Driver}) decides when a module is missing its interface. *)
