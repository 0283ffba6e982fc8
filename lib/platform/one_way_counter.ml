(** The one-way persistent counter (paper Figure 1): readable by anyone,
    incrementable, never decrementable. Real devices use dedicated hardware
    (the paper cites the Infineon Eurochip); the paper's own evaluation
    emulates it "as a file on the same NTFS partition" (Section 7.2), and we
    provide the same file emulation plus an in-memory one for tests.

    The chunk store compares this counter against the signed value stored
    with the database to detect replay attacks (Section 3). *)

type t = {
  read : unit -> int64;
  increment : unit -> int64; (* returns the new value *)
}

exception Unreadable of string

let read t = t.read ()
let increment t = t.increment ()

(** In-memory counter; [rollback] deliberately violates one-wayness so the
    test suite can model a *broken* counter and check that TDB treats the
    resulting mismatch as tampering. *)
module Mem = struct
  type handle = { mutable v : int64 }

  let rollback (h : handle) (v : int64) = h.v <- v
end

let open_mem ?(initial = 0L) () : Mem.handle * t =
  let h = { Mem.v = initial } in
  ( h,
    {
      read = (fun () -> h.Mem.v);
      increment =
        (fun () ->
          h.Mem.v <- Int64.add h.Mem.v 1L;
          h.Mem.v);
    } )

(** Counter emulated on top of an untrusted byte store (the paper stores it
    "as a file on the same NTFS partition"; tests and the fault-injection
    harness run it over an in-memory store). The value is stored with a
    checksum in two slots, so a torn write of one slot never loses
    monotonicity: on read we take the highest valid slot. *)
let open_store ?(existing = false) (store : Untrusted_store.t) : t =
  let checksum v = String.sub (Tdb_crypto.Sha256.digest (Printf.sprintf "owc:%Ld" v)) 0 8 in
  let encode v = Printf.sprintf "%020Ld:%s" v (Tdb_crypto.Hex.of_string (checksum v)) in
  let slot_len = String.length (encode 0L) in
  let decode s =
    match String.index_opt s ':' with
    | None -> None
    | Some i ->
        let v = Int64.of_string_opt (String.sub s 0 i) in
        ( match v with
        | Some v
          when String.equal
                 (String.sub s (i + 1) (String.length s - i - 1))
                 (Tdb_crypto.Hex.of_string (checksum v)) ->
            Some v
        | _ -> None )
  in
  (* [decode] is a function of the bytes alone, so each slot remembers the
     last bytes it decoded with their value, and [write_slot] primes it
     with the bytes it writes: an increment re-checks a slot only when its
     bytes changed (torn, forged or written by another opener). *)
  let memo = Array.make 2 ("", None) in
  let decode_slot i s =
    let seen, v = memo.(i) in
    if String.equal seen s then v
    else begin
      let v = decode s in
      memo.(i) <- (s, v);
      v
    end
  in
  (* Per-slot view: which value (if any) each slot currently holds; a slot
     the store does not hold in full holds none. *)
  let slot_values () : int64 option * int64 option =
    let full = min 2 (Untrusted_store.size store / slot_len) in
    if full = 0 then (None, None)
    else begin
      let buf = Untrusted_store.read store ~off:0 ~len:(full * slot_len) in
      let slot i = if i < full then decode_slot i (Bytes.sub_string buf (i * slot_len) slot_len) else None in
      (slot 0, slot 1)
    end
  in
  let max_of = function
    | None, None -> 0L
    | Some v, None | None, Some v -> v
    | Some a, Some b -> if Int64.compare a b >= 0 then a else b
  in
  let current () = max_of (slot_values ()) in
  let write_slot i v =
    let s = encode v in
    Untrusted_store.write store ~off:(i * slot_len) s;
    memo.(i) <- (s, Some v);
    Untrusted_store.sync store
  in
  (* Initialize both slots only while no byte past slot 0 was written:
     the first initialization syncs slot 0 before it writes slot 1, so a
     store that reaches slot 1 and holds no valid slot is not a torn
     initialization. Zeroing it would roll the counter back. A counter
     opened as [existing] was initialized before it went into service, so
     it is never initialized again. *)
  (match slot_values () with
  | None, None ->
      let size = Untrusted_store.size store in
      if existing || size > slot_len then
        raise (Unreadable (Printf.sprintf "no valid slot in %d bytes of counter state" size));
      write_slot 0 0L;
      write_slot 1 0L
  | _ -> ());
  {
    read = current;
    increment =
      (fun () ->
        (* Always write the slot NOT holding the current maximum: if the
           write tears, the surviving slot still holds the pre-increment
           value and the counter stays monotone. (Alternating slots blindly
           would, after a reopen, overwrite the max-holding slot and let a
           torn write roll the counter back.) One slot read serves both
           the current value and the choice of slot. *)
        let slots = slot_values () in
        let v = Int64.add (max_of slots) 1L in
        let target =
          match slots with
          | None, _ -> 0
          | _, None -> 1
          | Some a, Some b -> if Int64.compare a b >= 0 then 1 else 0
        in
        write_slot target v;
        v);
  }

(** File-backed counter (paper Section 7.2), via {!open_store} over a
    file-backed untrusted store. *)
let open_file ?existing (path : string) : t = open_store ?existing (Untrusted_store.open_file path)
