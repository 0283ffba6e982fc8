(** Constant-time primitives, for MAC verification and padding checks. *)

(* Mask combinators over small non-negative ints (byte values, block
   sizes): all-ones / all-zeros results compose with [land]/[lor] without
   branching on secret data. *)

let lt_mask (a : int) (b : int) : int = (a - b) asr (Sys.int_size - 1)

let equal_string (a : string) (b : string) : bool =
  if String.length a <> String.length b then false
  else begin
    let acc = ref 0 in
    for i = 0 to String.length a - 1 do
      acc := !acc lor (Char.code a.[i] lxor Char.code b.[i])
    done;
    !acc = 0
  end

let equal_bytes (a : bytes) (b : bytes) : bool =
  if Bytes.length a <> Bytes.length b then false
  else begin
    let acc = ref 0 in
    for i = 0 to Bytes.length a - 1 do
      acc := !acc lor (Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i))
    done;
    !acc = 0
  end
