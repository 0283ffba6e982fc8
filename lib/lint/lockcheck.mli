(** R7 — lock-discipline analysis (see the .ml header for the rules and
    the control-flow approximation). Summaries are computed for every
    definition in the program; violations are reported only for files
    {!Sources.lock_reported} accepts. *)

type stats = { k_edges : (string * string) list  (** the lock-order graph *) }

val run : Dataflow.program -> Engine.violation list * stats
