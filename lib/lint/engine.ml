(** Syntactic lint rules enforcing TDB's trusted-code-base invariants.

    The security argument of the paper (Sections 3-5) rests on a small
    trusted layer whose invariants — constant-time MAC comparison, no
    ambient randomness, stable key orderings — are easy to break silently
    in a refactor. This engine parses the repo's own sources with
    compiler-libs ([Parse] + [Ast_iterator], no type information) and
    flags violations of five rules:

    - R1: polymorphic [=] / [<>] / [compare] / [Hashtbl.hash] —
      timing-unsafe on strings and version-unstable.
      Comparisons where one operand is syntactically immediate (an
      int/char/float literal, [true]/[false]/[()]/[None]/[[]], or a
      known int-returning primitive such as [String.length]) are exempt:
      those are monomorphic in effect and timing-safe.
    - R2: in the cryptographic layers, equality on values whose
      identifiers look like MAC/tag/digest/hmac/label material must go
      through {!Tdb_crypto.Ct}, never [String.equal] or [=].
    - R3: [Obj], [Marshal], [Random] and [Domain] are banned in trusted
      layers; randomness must come from [Drbg], serialization from
      [Pickle], and concurrency from threads: trusted layers do not
      create domains, so the single-owner state they share under one
      mutex (the chunk cache, the IV seal order) never runs in parallel.
    - R4: partial functions ([List.hd]/[tl]/[nth], [Option.get],
      [Bytes.unsafe_*], [String.unsafe_*], [Array.unsafe_*]) and
      catch-all [try ... with _ ->] handlers.
    - R5: every module under [lib/] must expose an [.mli] (checked by
      {!Driver}, which sees the file system; {!missing_interface} builds
      the violation).

    Two further rules are interprocedural and live in their own modules,
    sharing this [rule]/[violation] vocabulary and the allowlist:

    - R6 ({!Taint}): a secret-tainted value (key material, decrypted
      payloads — {!Sources.taint_sources}) reaches an untrusted sink
      (store/archival/wire/console writes) without passing a sanitizer
      (seal/MAC/digest).
    - R7 ({!Lockcheck}): lock-order cycles, re-locking a held mutex,
      [Condition.wait] on the wrong mutex or with extra locks held, and
      blocking I/O under a non-exempt mutex.

    The passes are purely syntactic: they see the parsetree, not types,
    so the rules err on the side of flagging and rely on [lint_allow.txt]
    (see {!Allowlist}) for the rare justified exception. *)

open Parsetree

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7

let rule_id = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"

let rule_of_id = function
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | _ -> None

let rule_equal a b =
  match (a, b) with
  | R1, R1 | R2, R2 | R3, R3 | R4, R4 | R5, R5 | R6, R6 | R7, R7 -> true
  | (R1 | R2 | R3 | R4 | R5 | R6 | R7), _ -> false

type violation = {
  v_file : string;
  v_line : int;
  v_col : int;
  v_rule : rule;
  v_msg : string;
}

(* ------------------------------------------------------------------ *)
(* Layer classification                                                *)
(* ------------------------------------------------------------------ *)

(** Layers inside the paper's trusted code base: everything an attacker
    must not be able to influence. *)
let trusted_dirs =
  [ "lib/chunk"; "lib/crypto"; "lib/objstore"; "lib/backup"; "lib/platform"; "lib/server"; "bin" ]

(** Layers where R2 (constant-time comparison of secret-derived values)
    applies: the crypto primitives and their direct consumers. *)
let ct_dirs = [ "lib/crypto"; "lib/chunk"; "lib/backup" ]

let path_under dir path =
  let prefix = dir ^ "/" in
  let n = String.length prefix in
  String.length path >= n && String.equal (String.sub path 0 n) prefix

let in_layer dirs path = List.exists (fun d -> path_under d path) dirs

(* ------------------------------------------------------------------ *)
(* Identifier classification                                           *)
(* ------------------------------------------------------------------ *)

let flatten lid =
  let rec go acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> go (s :: acc) l
    | Longident.Lapply _ -> [] (* functor applications never name banned values *)
  in
  go [] lid

let strip_stdlib = function ("Stdlib" | "Pervasives") :: rest -> rest | p -> p

(* [min]/[max] are deliberately not banned: they are routinely shadowed
   as range-bound parameter names ([?min]/[?max]), and an unscoped
   syntactic pass cannot tell the two apart. *)
let is_poly_compare_path p =
  match strip_stdlib p with [ ("=" | "<>" | "compare") ] -> true | _ -> false

let is_poly_hash_path p =
  match strip_stdlib p with
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "seeded_hash_param") ] -> true
  | _ -> false

(** Equality-shaped functions R2 audits in the crypto layers. *)
let is_equality_path p =
  match strip_stdlib p with
  | [ ("=" | "<>" | "compare") ] -> true
  | [ ("String" | "Bytes"); ("equal" | "compare") ] -> true
  | _ -> false

let banned_trusted_head = function "Obj" | "Marshal" | "Random" | "Domain" -> true | _ -> false

let partial_name p =
  match strip_stdlib p with
  | [ "List"; (("hd" | "tl" | "nth") as f) ] -> Some ("List." ^ f)
  | [ "Option"; "get" ] -> Some "Option.get"
  | [ (("Bytes" | "String" | "Array") as m); f ]
    when String.length f >= 7 && String.equal (String.sub f 0 7) "unsafe_" ->
      Some (m ^ "." ^ f)
  | _ -> None

(** Syntactically immediate operands: comparing against these with a
    polymorphic operator is monomorphic in effect, timing-safe and
    version-stable, so R1 exempts the comparison. *)
let int_function_path p =
  match strip_stdlib p with
  | [ ("+" | "-" | "*" | "/" | "mod" | "land" | "lor" | "lxor" | "lsl" | "lsr" | "asr"
      | "~-" | "abs" | "succ" | "pred") ] ->
      true
  | [ ("String" | "Bytes" | "List" | "Array"); "length" ] -> true
  | [ "Char"; "code" ] -> true
  | [ ("Int" | "Float" | "String" | "Bytes" | "Char" | "Bool" | "Int32" | "Int64"); "compare" ] ->
      true
  | _ -> false

let rec immediate_ish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _ | Pconst_char _ | Pconst_float _) -> true
  | Pexp_construct ({ txt; _ }, None) -> (
      match flatten txt with [ ("true" | "false" | "()" | "None" | "[]") ] -> true | _ -> false)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> int_function_path (flatten txt)
  | Pexp_constraint (inner, _) -> immediate_ish inner
  | Pexp_open (_, inner) -> immediate_ish inner
  | _ -> false

(* ------------------------------------------------------------------ *)
(* R2: sensitive-identifier detection                                  *)
(* ------------------------------------------------------------------ *)

let sensitive_component = function
  | "mac" | "hmac" | "tag" | "digest" | "label" -> true
  | _ -> false

let ident_sensitive name =
  List.exists sensitive_component (String.split_on_char '_' (String.lowercase_ascii name))

let last_component p = match List.rev p with c :: _ -> Some c | [] -> None

(** First identifier (variable, path tail or record field) inside [e]
    whose name looks like MAC/digest material. *)
let find_sensitive_ident e =
  let found = ref None in
  let note name =
    match !found with
    | Some _ -> ()
    | None -> if ident_sensitive name then found := Some name
  in
  let note_path txt = match last_component (flatten txt) with Some n -> note n | None -> () in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it ex ->
          (match ex.pexp_desc with
          | Pexp_ident { txt; _ } -> note_path txt
          | Pexp_field (_, { txt; _ }) -> note_path txt
          | _ -> ());
          Ast_iterator.default_iterator.expr it ex);
    }
  in
  it.expr it e;
  !found

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)
(* ------------------------------------------------------------------ *)

let pos_of (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let check_source ~path source =
  let trusted = in_layer trusted_dirs path in
  let ct_scope = in_layer ct_dirs path in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  let str = Parse.implementation lexbuf in
  let violations = ref [] in
  (* Ident locations already judged by the application-site logic, so the
     generic ident walk must not re-flag them. *)
  let consumed = Hashtbl.create 16 in
  let add loc rule msg =
    let line, col = pos_of loc in
    violations := { v_file = path; v_line = line; v_col = col; v_rule = rule; v_msg = msg } :: !violations
  in
  let bare_ident loc lid =
    if not (Hashtbl.mem consumed (pos_of loc)) then begin
      let p = flatten lid in
      let name = String.concat "." p in
      (match strip_stdlib p with
      | head :: _ :: _ when trusted && banned_trusted_head head ->
          add loc R3
            (Printf.sprintf
               "%s is banned in trusted layers (randomness: Drbg; serialization: Pickle; \
                concurrency: threads)"
               name)
      | _ -> ());
      (match partial_name p with
      | Some f -> add loc R4 (Printf.sprintf "partial/unsafe function %s; use a total alternative" f)
      | None -> ());
      if is_poly_compare_path p then
        add loc R1
          (Printf.sprintf "polymorphic %s; use a monomorphic comparator (String.equal, Int.compare, ...)" name);
      if is_poly_hash_path p then add loc R1 (name ^ " is version-unstable; use Gkey.hash_bytes")
    end
  in
  let handle_apply fn_loc fn_lid args =
    let p = flatten fn_lid in
    let exempt = List.exists immediate_ish args in
    if ct_scope && is_equality_path p && not exempt then begin
      match List.find_map find_sensitive_ident args with
      | Some name ->
          Hashtbl.replace consumed (pos_of fn_loc) ();
          add fn_loc R2
            (Printf.sprintf "comparison involving %S must use Ct.equal_string/Ct.equal_bytes" name)
      | None -> ()
    end;
    if (not (Hashtbl.mem consumed (pos_of fn_loc)))
       && (is_poly_compare_path p || is_poly_hash_path p)
    then begin
      Hashtbl.replace consumed (pos_of fn_loc) ();
      if not exempt then begin
        let name = String.concat "." p in
        if is_poly_hash_path p then add fn_loc R1 (name ^ " is version-unstable; use Gkey.hash_bytes")
        else
          add fn_loc R1
            (Printf.sprintf "polymorphic %s on non-immediate operands; use a monomorphic comparator"
               name)
      end
    end
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
              handle_apply loc txt (List.map snd args)
          | Pexp_ident { txt; loc } -> bare_ident loc txt
          | Pexp_try (_, cases) ->
              List.iter
                (fun c ->
                  match c.pc_lhs.ppat_desc with
                  | Ppat_any ->
                      add c.pc_lhs.ppat_loc R4
                        "catch-all 'with _ ->' swallows Tamper_detected and Out_of_memory alike; match specific exceptions"
                  | _ -> ())
                cases
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
      (* a module path names a banned module wherever it appears: [open],
         local opens, aliases ([module D = Domain]) and [include] *)
      module_expr =
        (fun it me ->
          (if trusted then
             match me.pmod_desc with
             | Pmod_ident { txt; loc } -> (
                 match strip_stdlib (flatten txt) with
                 | head :: _ when banned_trusted_head head ->
                     add loc R3 (head ^ " is banned in trusted layers")
                 | _ -> ())
             | _ -> ());
          Ast_iterator.default_iterator.module_expr it me);
    }
  in
  iter.structure iter str;
  List.stable_sort
    (fun a b ->
      match Int.compare a.v_line b.v_line with 0 -> Int.compare a.v_col b.v_col | c -> c)
    (List.rev !violations)

let missing_interface ~path =
  {
    v_file = path;
    v_line = 1;
    v_col = 0;
    v_rule = R5;
    v_msg = "module has no .mli; every module under lib/ must declare its public surface";
  }
