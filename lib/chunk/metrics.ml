type value = Int of int | Float of float | Text of string
type t = (string * value) list

let find (m : t) name = List.find_map (fun (n, v) -> if String.equal n name then Some v else None) m

let string_of_value = function
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%.3f" f
  | Text s -> s

let print (m : t) = List.iter (fun (n, v) -> Printf.printf "%-26s %s\n" n (string_of_value v)) m
