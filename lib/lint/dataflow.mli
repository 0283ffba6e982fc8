(** Whole-program view for the interprocedural rules: parsed units, the
    top-level definition table, and name-based call resolution (a
    parsetree approximation of the call graph — see the .ml header for
    its contract and limits). *)

type unit_ = {
  u_path : string;  (** repo-relative, '/'-separated *)
  u_module : string;
  u_str : Parsetree.structure;
}

val parse_unit : path:string -> string -> unit_
(** @raise Syntaxerr.Error on unparsable input. *)

type param = { p_label : string; p_pat : Parsetree.pattern }

type def = {
  d_id : int;
  d_path : string;
  d_module : string;
  d_name : string;
  d_params : param list;  (** empty for plain values *)
  d_body : Parsetree.expression;
  d_loc : Location.t;
}

type program = {
  units : unit_ list;
  defs : def list;
  by_key : (string * string, def) Hashtbl.t;
}

val build : unit_ list -> program

val flatten : Longident.t -> string list
(** [[]] for functor applications. *)

val resolve : program -> current_module:string -> string list -> def option

val match_args :
  def -> (Asttypes.arg_label * Parsetree.expression) list -> (int * Parsetree.expression) list
(** Pair arguments with parameter positions; unmatched arguments get
    [-1]. *)

val pattern_vars : Parsetree.pattern -> string list
val pos_of : Location.t -> int * int
