type t = Null | Bool of bool | Int of int | Num of float * int | Str of string | Arr of t list | Obj of (string * t) list

exception Error of string

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num (x, d) -> if Float.is_finite x then Printf.sprintf "%.*f" d x else "null"
  | Str s -> quote s
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l -> "{ " ^ String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ to_string v) l) ^ " }"

let document = function
  | Obj l ->
      let member (k, v) =
        match v with
        | Arr (Obj _ :: _ as rows) -> Printf.sprintf "  %s: [\n    %s\n  ]" (quote k) (String.concat ",\n    " (List.map to_string rows))
        | v -> Printf.sprintf "  %s: %s" (quote k) (to_string v)
      in
      "{\n" ^ String.concat ",\n" (List.map member l) ^ "\n}\n"
  | v -> to_string v ^ "\n"

let of_string s =
  let n = String.length s and i = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at byte %d" what !i)) in
  let next () = if !i >= n then fail "unexpected end" else (incr i; s.[!i - 1]) in
  let peek () =
    while !i < n && String.contains " \t\r\n" s.[!i] do incr i done;
    if !i < n then Some s.[!i] else None
  in
  let expect c = if Option.equal Char.equal (peek ()) (Some c) then incr i else fail (Printf.sprintf "expected %C" c) in
  let word w v = if String.equal (String.init (String.length w) (fun _ -> next ())) w then v else fail "bad literal" in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
          (match next () with
          | ('"' | '\\' | '/') as c -> Buffer.add_char b c
          | 'u' -> (
              match int_of_string_opt ("0x" ^ String.init 4 (fun _ -> next ())) with
              | Some c when c < 0x80 -> Buffer.add_char b (Char.chr c)
              | _ -> fail "unsupported \\u escape")
          | _ -> fail "bad escape");
          go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let number () =
    let start = !i in
    while !i < n && String.contains "0123456789+-.eE" s.[!i] do incr i done;
    let lex = String.sub s start (!i - start) in
    match (int_of_string_opt lex, float_of_string_opt lex) with
    | Some v, _ -> Int v
    | None, Some x -> Num (x, match String.index_opt lex '.' with Some d -> String.length lex - d - 1 | None -> 0)
    | None, None -> fail "bad value"
  in
  let rec value () =
    match peek () with
    | Some '{' -> incr i; Obj (seq '}' (fun () -> let k = str () in expect ':'; (k, value ())))
    | Some '[' -> incr i; Arr (seq ']' value)
    | Some '"' -> Str (str ())
    | Some 't' -> word "true" (Bool true)
    | Some 'f' -> word "false" (Bool false)
    | Some 'n' -> word "null" Null
    | _ -> number ()
  and seq : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    let rec more acc =
      let acc = item () :: acc in
      match peek () with
      | Some ',' -> incr i; more acc
      | Some c when Char.equal c close -> incr i; List.rev acc
      | _ -> fail (Printf.sprintf "expected ',' or %C" close)
    in
    if Option.equal Char.equal (peek ()) (Some close) then (incr i; []) else more []
  in
  let v = value () in
  if Option.is_some (peek ()) then fail "trailing bytes";
  v

let read_file path = of_string (In_channel.with_open_bin path In_channel.input_all)

let member k = function
  | Obj l -> List.find_map (fun (k', v) -> if String.equal k k' then Some v else None) l
  | _ -> None

let to_float = function Int i -> Some (float_of_int i) | Num (x, _) -> Some x | _ -> None
