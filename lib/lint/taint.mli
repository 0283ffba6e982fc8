(** R6 — interprocedural secret-taint analysis (see the .ml header for
    the lattice and its documented limits). Taint propagates through
    every definition in the program; violations are reported only for
    files {!Sources.taint_reported} accepts. *)

type stats = { t_defs : int;  (** top-level definitions analyzed *) t_edges : int;  (** resolved call edges *) }

val run : Dataflow.program -> Engine.violation list * stats
