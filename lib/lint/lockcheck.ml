(** R7 — lock-discipline analysis for the threaded layers.

    Four rules over a static lock-order graph:

    - {b ordering}: an edge [a -> b] is recorded whenever [b] is acquired
      while [a] is held — directly, through a callee (summaries carry the
      transitive set of locks a function acquires), or through a wrapper
      like [Object_store.with_mu] (the wrapped thunk's body is analyzed
      with the wrapper's lock held). A cycle in the graph, or a self-edge
      (re-locking a held mutex), is a deadlock and fails the lint.
    - {b Condition.wait}: waiting releases exactly one mutex. Waiting on
      a mutex other than the one held is a lost-wakeup/deadlock bug;
      waiting while a {e second} mutex is held parks the thread with that
      mutex locked. Waits under no statically-held lock (the
      caller-supplies-the-mutex idiom, e.g. [Lock_manager.wait_for ~mu])
      are out of scope for a per-function analysis and stay silent.
    - {b blocking under a lock}: calls that block for I/O-scale time
      ({!Sources.blocking_calls}, or any callee whose summary says it may
      block) while holding a mutex stall every contending thread. Locks in
      {!Sources.io_locks} are exempt from this rule only — holding them
      across store I/O is the documented design.
    - {b atomic spinning}: a [while] loop whose condition reads
      [Atomic.get] while a (non-I/O) mutex is held burns the lock's
      whole hold time busy-waiting; use [Condition.wait].

    Lock identity is syntactic: [t.mu] in [server.ml] is canonicalized to
    ["Server.mu"], a bare or qualified identifier to
    ["Module.name"]. That conflates instances (every [Server.t] shares
    one graph node) — the right coarsening for discipline checking, since
    the discipline is per-class, not per-instance.

    Control flow is approximated: sequences and let-bindings thread the
    held set, branches are each analyzed under the incoming set and the
    join discards branch-local imbalance, loop bodies are analyzed once,
    and a lambda passed to an unknown function is analyzed under the
    caller's current held set ([Thread.create] bodies start empty). *)

open Parsetree
module SSet = Set.Make (String)

type summary = {
  mutable l_acquires : SSet.t;  (** locks (transitively) acquired inside *)
  mutable l_blocks : string option;  (** witness if the def may block *)
  mutable l_wrappers : (int * SSet.t) list;
      (** parameters applied as thunks while holding locks *)
}

type state = {
  prog : Dataflow.program;
  summaries : (int, summary) Hashtbl.t;
  edges : (string * string, string * int * int) Hashtbl.t;  (** witness site *)
  mutable changed : bool;
  mutable report : bool;
  mutable violations : Engine.violation list;
}

type ctx = {
  cur : Dataflow.def;
  csum : summary;
  params : string list;
  mute : bool;  (** inside a spawned body: don't charge the spawner *)
}

let summary_of st (d : Dataflow.def) : summary =
  match Hashtbl.find_opt st.summaries d.d_id with
  | Some s -> s
  | None ->
      let s = { l_acquires = SSet.empty; l_blocks = None; l_wrappers = [] } in
      Hashtbl.replace st.summaries d.d_id s;
      s

let add_violation st ctx loc msg =
  if st.report && Sources.lock_reported ctx.cur.d_path then begin
    let line, col = Dataflow.pos_of loc in
    st.violations <-
      {
        Engine.v_file = ctx.cur.d_path;
        v_line = line;
        v_col = col;
        v_rule = Engine.R7;
        v_msg = msg;
      }
      :: st.violations
  end

(* Summary updates, flagging fixpoint progress. *)

let note_acquire st ctx l =
  if (not ctx.mute) && not (SSet.mem l ctx.csum.l_acquires) then begin
    ctx.csum.l_acquires <- SSet.add l ctx.csum.l_acquires;
    st.changed <- true
  end

let note_blocks st ctx w =
  if ctx.mute then ()
  else
    match ctx.csum.l_blocks with
    | Some _ -> ()
    | None ->
      ctx.csum.l_blocks <- Some w;
      st.changed <- true

let note_wrapper st ctx i locks =
  if
    (not ctx.mute)
    && not
      (List.exists (fun (j, ls) -> Int.equal i j && SSet.equal ls locks) ctx.csum.l_wrappers)
  then begin
    ctx.csum.l_wrappers <- (i, locks) :: ctx.csum.l_wrappers;
    st.changed <- true
  end

let add_edge st ctx held l loc =
  SSet.iter
    (fun h ->
      if not (String.equal h l) && not (Hashtbl.mem st.edges (h, l)) then begin
        let line, col = Dataflow.pos_of loc in
        Hashtbl.replace st.edges (h, l) (ctx.cur.d_path, line, col)
      end)
    held

(** Canonical name of a mutex expression: [t.mu] -> "<Module>.mu",
    [A.m] -> "A.m", bare [m] -> "<Module>.m". Anything more complex is an
    unknown lock and goes untracked. *)
let lock_name ctx (e : expression) : string option =
  match e.pexp_desc with
  | Pexp_field (_, { txt; _ }) -> (
      match List.rev (Dataflow.flatten txt) with
      | f :: _ -> Some (ctx.cur.d_module ^ "." ^ f)
      | [] -> None)
  | Pexp_ident { txt; _ } -> (
      match List.rev (Dataflow.flatten txt) with
      | [ x ] -> Some (ctx.cur.d_module ^ "." ^ x)
      | x :: m :: _ -> Some (m ^ "." ^ x)
      | [] -> None)
  | _ -> None

let non_io held = SSet.filter (fun l -> not (Sources.is_io_lock l)) held
let path_str p = String.concat "." p

(** Does a while-loop condition read an [Atomic.t]? Shallow but total:
    covers the shapes a spin condition actually takes (an application,
    possibly negated or compared, threaded through lets/sequences). *)
let rec mentions_atomic_get (e : expression) : bool =
  match e.pexp_desc with
  | Pexp_apply (f, args) ->
      (match f.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          match Dataflow.flatten txt with [ "Atomic"; "get" ] -> true | _ -> false)
      | _ -> false)
      || mentions_atomic_get f
      || List.exists (fun (_, a) -> mentions_atomic_get a) args
  | Pexp_ifthenelse (c, e1, e2) ->
      mentions_atomic_get c || mentions_atomic_get e1
      || (match e2 with Some x -> mentions_atomic_get x | None -> false)
  | Pexp_sequence (e1, e2) -> mentions_atomic_get e1 || mentions_atomic_get e2
  | Pexp_let (_, vbs, body) ->
      List.exists (fun vb -> mentions_atomic_get vb.pvb_expr) vbs || mentions_atomic_get body
  | Pexp_field (b, _) | Pexp_constraint (b, _) | Pexp_open (_, b) -> mentions_atomic_get b
  | _ -> false

let param_index ctx name =
  let rec go i = function
    | [] -> None
    | n :: rest -> if String.equal n name then Some i else go (i + 1) rest
  in
  go 0 ctx.params

(* ------------------------------------------------------------------ *)
(* The walk: threads the held set through an expression                *)
(* ------------------------------------------------------------------ *)

let rec walk st ctx (held : SSet.t) (e : expression) : SSet.t =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> apply st ctx held e f args
  | Pexp_sequence (e1, e2) ->
      let h = walk st ctx held e1 in
      walk st ctx h e2
  | Pexp_let (_, vbs, body) ->
      let h =
        List.fold_left
          (fun h vb ->
            match vb.pvb_expr.pexp_desc with
            | Pexp_fun _ | Pexp_function _ ->
                walk_fn st ctx h vb.pvb_expr;
                h
            | _ -> walk st ctx h vb.pvb_expr)
          held vbs
      in
      walk st ctx h body
  | Pexp_ifthenelse (c, e1, e2) ->
      let h = walk st ctx held c in
      ignore (walk st ctx h e1);
      (match e2 with Some x -> ignore (walk st ctx h x) | None -> ());
      h
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      let h = walk st ctx held scrut in
      List.iter
        (fun c ->
          (match c.pc_guard with Some g -> ignore (walk st ctx h g) | None -> ());
          ignore (walk st ctx h c.pc_rhs))
        cases;
      h
  | Pexp_fun _ | Pexp_function _ ->
      walk_fn st ctx held e;
      held
  | Pexp_while (c, b) ->
      (if mentions_atomic_get c then
         let bad = non_io held in
         if not (SSet.is_empty bad) then
           add_violation st ctx c.pexp_loc
             (Printf.sprintf
                "spinning on Atomic.get under mutex %s — busy-waiting burns the lock's hold time; \
                 use Condition.wait"
                (String.concat ", " (SSet.elements bad))));
      ignore (walk st ctx held c);
      ignore (walk st ctx held b);
      held
  | Pexp_for (_, lo, hi, _, b) ->
      ignore (walk st ctx held lo);
      ignore (walk st ctx held hi);
      ignore (walk st ctx held b);
      held
  | Pexp_tuple es | Pexp_array es ->
      List.iter (fun x -> ignore (walk st ctx held x)) es;
      held
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) ->
      (match arg with Some a -> ignore (walk st ctx held a) | None -> ());
      held
  | Pexp_record (fields, base) ->
      (match base with Some b -> ignore (walk st ctx held b) | None -> ());
      List.iter (fun (_, fe) -> ignore (walk st ctx held fe)) fields;
      held
  | Pexp_field (b, _) ->
      ignore (walk st ctx held b);
      held
  | Pexp_setfield (b, _, v) ->
      ignore (walk st ctx held b);
      ignore (walk st ctx held v);
      held
  | Pexp_constraint (x, _) | Pexp_coerce (x, _, _) | Pexp_lazy x | Pexp_open (_, x) ->
      walk st ctx held x
  | Pexp_assert x ->
      ignore (walk st ctx held x);
      held
  | Pexp_letmodule (_, _, x) | Pexp_letexception (_, x) | Pexp_newtype (_, x) ->
      walk st ctx held x
  | _ -> held

(** Analyze a lambda's body under [held] (its parameters are irrelevant
    to lock state). *)
and walk_fn st ctx held (e : expression) : unit =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> walk_fn st ctx held body
  | Pexp_function cases -> List.iter (fun c -> ignore (walk st ctx held c.pc_rhs)) cases
  | _ -> ignore (walk st ctx held e)

(** A value applied as a thunk while [held] locks are held: a literal
    lambda is analyzed under them; a bare parameter makes the current
    definition a wrapper. *)
and as_thunk st ctx held (e : expression) : unit =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> walk_fn st ctx held e
  | Pexp_ident { txt = Longident.Lident x; _ } -> (
      match param_index ctx x with
      | Some i -> if not (SSet.is_empty held) then note_wrapper st ctx i held
      | None -> ())
  | _ -> ignore (walk st ctx held e)

and apply st ctx held app f args =
  ignore app;
  match f.pexp_desc with
  | Pexp_ident { txt; loc } -> (
      let path = Dataflow.flatten txt in
      match (path, args) with
      | [ "Mutex"; "lock" ], [ (_, m) ] -> (
          match lock_name ctx m with
          | Some l ->
              if SSet.mem l held then
                add_violation st ctx loc
                  (Printf.sprintf "mutex %s locked while already held (self-deadlock)" l)
              else add_edge st ctx held l loc;
              note_acquire st ctx l;
              SSet.add l held
          | None -> held)
      | [ "Mutex"; "unlock" ], [ (_, m) ] -> (
          match lock_name ctx m with Some l -> SSet.remove l held | None -> held)
      | ([ "Mutex"; "protect" ] | [ "Mutex"; "with_lock" ]), (_, m) :: rest -> (
          match lock_name ctx m with
          | Some l ->
              if SSet.mem l held then
                add_violation st ctx loc
                  (Printf.sprintf "mutex %s locked while already held (self-deadlock)" l)
              else add_edge st ctx held l loc;
              note_acquire st ctx l;
              List.iter (fun (_, a) -> as_thunk st ctx (SSet.add l held) a) rest;
              held
          | None ->
              List.iter (fun (_, a) -> as_thunk st ctx held a) rest;
              held)
      | [ "Condition"; "wait" ], [ (_, _c); (_, m) ] ->
          note_blocks st ctx "Condition.wait (indefinite wait)";
          (if not (SSet.is_empty held) then
             match lock_name ctx m with
             | Some l ->
                 if not (SSet.mem l held) then
                   add_violation st ctx loc
                     (Printf.sprintf
                        "Condition.wait on mutex %s while holding %s — wait releases a mutex the \
                         thread does not hold"
                        l
                        (String.concat ", " (SSet.elements held)))
                 else begin
                   let extra = SSet.remove l held in
                   if not (SSet.is_empty extra) then
                     add_violation st ctx loc
                       (Printf.sprintf
                          "Condition.wait releases only %s but %s still held across the wait" l
                          (String.concat ", " (SSet.elements extra)))
                 end
             | None -> ());
          held
      | [ "Thread"; "create" ], (_, fn) :: rest ->
          (* The new thread starts with no locks held, and whatever it
             acquires or blocks on is its own business — mute summary
             updates so the spawner is not blamed for it. *)
          as_thunk st { ctx with mute = true } SSet.empty fn;
          List.iter (fun (_, a) -> ignore (walk st ctx held a)) rest;
          held
      | [ "Fun"; "protect" ], _ ->
          (* main thunk runs first, then ~finally (which typically
             releases): thread the finally body's effect outward *)
          let fin, rest =
            List.partition
              (fun (lbl, _) ->
                match lbl with Asttypes.Labelled "finally" -> true | _ -> false)
              args
          in
          List.iter (fun (_, a) -> as_thunk st ctx held a) rest;
          List.fold_left
            (fun h (_, a) ->
              match a.pexp_desc with
              | Pexp_fun (_, _, _, body) -> walk st ctx h body
              | _ ->
                  as_thunk st ctx h a;
                  h)
            held fin
      | _, _ ->
          let held =
            List.fold_left (fun h (_, a) -> arg_walk st ctx h a) held args
          in
          (match Sources.blocking_of path with
          | Some k ->
              note_blocks st ctx (Printf.sprintf "%s (%s)" (path_str path) k.Sources.k_why);
              let bad = non_io held in
              if not (SSet.is_empty bad) then
                add_violation st ctx loc
                  (Printf.sprintf "blocking call %s (%s) under mutex %s" (path_str path)
                     k.Sources.k_why
                     (String.concat ", " (SSet.elements bad)))
          | None -> ());
          (match Dataflow.resolve st.prog ~current_module:ctx.cur.d_module path with
          | Some d ->
              let s = summary_of st d in
              SSet.iter
                (fun l ->
                  if not (SSet.mem l held) then add_edge st ctx held l loc;
                  note_acquire st ctx l)
                s.l_acquires;
              (match s.l_blocks with
              | Some w ->
                  note_blocks st ctx (Printf.sprintf "%s.%s: %s" d.d_module d.d_name w);
                  let bad = non_io held in
                  if not (SSet.is_empty bad) then
                    add_violation st ctx loc
                      (Printf.sprintf "call to %s.%s may block (%s) under mutex %s" d.d_module
                         d.d_name w
                         (String.concat ", " (SSet.elements bad)))
              | None -> ());
              let pairs = Dataflow.match_args d args in
              List.iter
                (fun (i, locks) ->
                  List.iter
                    (fun (j, (a : expression)) ->
                      if Int.equal i j then as_thunk st ctx (SSet.union held locks) a)
                    pairs)
                s.l_wrappers;
              held
          | None -> held))
  | _ ->
      let h = walk st ctx held f in
      List.fold_left (fun h (_, a) -> arg_walk st ctx h a) h args

(* An argument expression: lambdas are analyzed under the current held
   set unless a wrapper summary already claimed them (handled above —
   unknown callees have no summaries, so here only the unknown-HOF case
   remains); other expressions thread normally. *)
and arg_walk st ctx held (a : expression) : SSet.t =
  match a.pexp_desc with
  | Pexp_fun _ | Pexp_function _ ->
      walk_fn st ctx held a;
      held
  | _ -> walk st ctx held a

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let analyze_def st (d : Dataflow.def) =
  let s = summary_of st d in
  let params =
    List.concat_map (fun (p : Dataflow.param) -> Dataflow.pattern_vars p.p_pat) d.d_params
  in
  let ctx = { cur = d; csum = s; params; mute = false } in
  ignore (walk st ctx SSet.empty d.d_body)

(** One violation per lock-order cycle, reported at the witness site of
    an edge that closes it (skipped when no edge in the cycle was
    recorded in a reported directory). *)
let cycle_violations st =
  let adj = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (a, b) _ ->
      Hashtbl.replace adj a (b :: Option.value ~default:[] (Hashtbl.find_opt adj a)))
    st.edges;
  let path_to target start =
    (* DFS from [start] looking for [target]; returns the node path *)
    let visited = Hashtbl.create 16 in
    let rec go node trail =
      if Hashtbl.mem visited node then None
      else begin
        Hashtbl.replace visited node ();
        if String.equal node target then Some (List.rev (node :: trail))
        else
          List.fold_left
            (fun acc next -> match acc with Some _ -> acc | None -> go next (node :: trail))
            None
            (Option.value ~default:[] (Hashtbl.find_opt adj node))
      end
    in
    go start []
  in
  Hashtbl.iter
    (fun (a, b) (file, line, col) ->
      if Sources.lock_reported file then
        match path_to a b with
        | Some path ->
            st.violations <-
              {
                Engine.v_file = file;
                v_line = line;
                v_col = col;
                v_rule = Engine.R7;
                v_msg =
                  Printf.sprintf "lock-order cycle: %s"
                    (String.concat " -> " ((a :: path) @ [ a ]));
              }
              :: st.violations
        | None -> ())
    st.edges

type stats = { k_edges : (string * string) list  (** the lock-order graph *) }

let run (prog : Dataflow.program) : Engine.violation list * stats =
  let st =
    {
      prog;
      summaries = Hashtbl.create 256;
      edges = Hashtbl.create 64;
      changed = false;
      report = false;
      violations = [];
    }
  in
  let rec fix n =
    st.changed <- false;
    List.iter (analyze_def st) prog.defs;
    if st.changed && n < 20 then fix (n + 1)
  in
  fix 0;
  st.report <- true;
  List.iter (analyze_def st) prog.defs;
  cycle_violations st;
  let cmp (a : Engine.violation) (b : Engine.violation) =
    match String.compare a.v_file b.v_file with
    | 0 -> (
        match Int.compare a.v_line b.v_line with
        | 0 -> ( match Int.compare a.v_col b.v_col with 0 -> String.compare a.v_msg b.v_msg | c -> c)
        | c -> c)
    | c -> c
  in
  let violations = List.sort_uniq cmp st.violations in
  let edges = Hashtbl.fold (fun e _ acc -> e :: acc) st.edges [] in
  let edges =
    List.sort
      (fun (a1, b1) (a2, b2) ->
        match String.compare a1 a2 with 0 -> String.compare b1 b2 | c -> c)
      edges
  in
  (violations, { k_edges = edges })
