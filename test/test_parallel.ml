(* Cross-domain safety regressions: the chunk cache refuses a foreign
   domain, precomputed HMAC keys and the DRBG stay correct when shared
   across domains. The server runs threads, so these invariants still
   matter with sealing on the calling domain. *)

open Tdb_crypto
open Tdb_chunk

(* --- regression: chunk cache is single-writer (owner assertion) --- *)

let test_cache_ownership () =
  let c = Chunk_cache.create ~budget:4096 in
  Chunk_cache.put c 1 ~version:1 "payload";
  Alcotest.(check (option string)) "owner reads fine" (Some "payload") (Chunk_cache.find c 1 ~version:1);
  (* Before the single-writer fix a foreign domain could mutate the LRU
     links and counters unsynchronized; now the ownership assertion kills
     it loudly. *)
  let foreign_find =
    Domain.spawn (fun () ->
        match Chunk_cache.find c 1 ~version:1 with
        | _ -> false
        | exception Assert_failure _ -> true)
  in
  Alcotest.(check bool) "foreign find asserts" true (Domain.join foreign_find);
  let foreign_put =
    Domain.spawn (fun () ->
        match Chunk_cache.put c 2 ~version:1 "intruder" with
        | () -> false
        | exception Assert_failure _ -> true)
  in
  Alcotest.(check bool) "foreign put asserts" true (Domain.join foreign_put);
  (* read-only accessors stay callable from anywhere *)
  let foreign_stats = Domain.spawn (fun () -> Chunk_cache.stats c) in
  ignore (Domain.join foreign_stats)

(* --- regression: precomputed HMAC keys are immutable across domains --- *)

let test_hmac_precompute_parallel () =
  let key = String.init 37 (fun i -> Char.chr ((i * 11) land 0xff)) in
  let pre = Hmac.precompute (module Sha256) ~key in
  let messages = Array.init 64 (fun i -> Printf.sprintf "msg-%d-%s" i (String.make (i * 3) 'm')) in
  let expect = Array.map (fun m -> Hmac.sha256 ~key m) messages in
  (* Before the midstate fix, [precompute] shared two mutable contexts that
     every [mac] call reset and advanced — a data race across domains. Now
     each call resumes private copies from immutable midstates. *)
  let hammer () =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for round = 0 to 200 do
              let i = (round + d) mod Array.length messages in
              if not (String.equal (Hmac.mac pre messages.(i)) expect.(i)) then ok := false
            done;
            !ok))
    |> Array.map Domain.join
  in
  Array.iteri (fun d ok -> Alcotest.(check bool) (Printf.sprintf "domain %d consistent" d) true ok) (hammer ())

(* --- regression: the DRBG never hands two callers the same bytes --- *)

let test_drbg_parallel () =
  let g = Drbg.create ~seed:"parallel-drbg-test" in
  let draws_per_domain = 2000 in
  let outputs =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () -> Array.init draws_per_domain (fun _ -> Drbg.generate g 8)))
    |> Array.map Domain.join
  in
  let seen = Hashtbl.create (4 * draws_per_domain) in
  let dups = ref 0 in
  Array.iter
    (Array.iter (fun s ->
         if Hashtbl.mem seen s then incr dups else Hashtbl.replace seen s ()))
    outputs;
  (* Before the mutex fix, two domains could snapshot the same state and
     emit identical "random" bytes — fatal for IV uniqueness. *)
  Alcotest.(check int) "no duplicate draws" 0 !dups;
  Alcotest.(check int) "all draws accounted" (4 * draws_per_domain) (Hashtbl.length seen);
  (* sequential stream is unchanged: same seed => same bytes, and split
     still derives an independent child deterministically *)
  let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
  Alcotest.(check string) "deterministic stream" (Drbg.generate a 32) (Drbg.generate b 32);
  let ca = Drbg.split a "child" and cb = Drbg.split b "child" in
  Alcotest.(check string) "deterministic split" (Drbg.generate ca 16) (Drbg.generate cb 16);
  Alcotest.(check string) "parent advanced identically" (Drbg.generate a 16) (Drbg.generate b 16)

let () =
  Alcotest.run "parallel"
    [
      ( "regressions",
        [
          Alcotest.test_case "cache ownership" `Quick test_cache_ownership;
          Alcotest.test_case "hmac precompute" `Quick test_hmac_precompute_parallel;
          Alcotest.test_case "drbg" `Quick test_drbg_parallel;
        ] );
    ]
