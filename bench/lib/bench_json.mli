(** JSON values for the BENCH_*.json files: one printer and one small
    parser, shared by every bench writer and by [bench/main.exe guard]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float * int  (** value, decimals printed; non-finite prints as [null] *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

val to_string : t -> string

val document : t -> string
(** The BENCH file layout: one top-level member per line, one line per
    element of an array of objects. A parsed [Num] keeps its decimals, so a
    parsed file reprints with the same digits. *)

val of_string : string -> t
(** @raise Error on malformed input. *)

val read_file : string -> t
val member : string -> t -> t option
val to_float : t -> float option
