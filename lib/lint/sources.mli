(** Annotation tables for the interprocedural analyses: R6 taint
    sources/sinks/sanitizers and R7 lock-discipline primitives. The
    tables are the machine-checked statement of TDB's trust boundary;
    DESIGN.md ("Static analysis") explains how to extend them when a new
    module introduces a key, a boundary write or a mutex. *)

type fn_key = {
  k_module : string;  (** "" = any qualifier, including none *)
  k_name : string;
  k_why : string;  (** one-line rationale, surfaced in violations *)
}

val taint_sources : fn_key list
val sensitive_fields : string list
val taint_sanitizers : fn_key list
val generic_sanitizer_names : string list
val taint_sinks : fn_key list
val taint_report_dirs : string list
val blocking_calls : fn_key list
val io_locks : string list
val lock_report_dirs : string list

val matches : fn_key -> string list -> bool
(** [matches k path] — [path] is a flattened dotted path; the name must
    be its tail and a nonempty [k_module] the preceding component. *)

val is_source : string list -> bool
val is_sanitizer : string list -> bool
val sink_of : string list -> fn_key option
val blocking_of : string list -> fn_key option
val is_sensitive_field : string -> bool
val is_io_lock : string -> bool
val taint_reported : string -> bool
val lock_reported : string -> bool

val in_dirs : string list -> string -> bool
(** [in_dirs dirs path] — is [path] under one of [dirs]? *)
